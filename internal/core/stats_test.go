package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

// partialStats builds an ExecStats fixture: round "base" loses site2,
// round "step 1" loses site2 again plus site0, round "step 2" is full.
func partialStats() *ExecStats {
	return &ExecStats{Rounds: []RoundStats{
		roundOf("base", SiteRound{Site: "site0"}, SiteRound{Site: "site1"}, lostSite("site2", "dial refused")),
		roundOf("step 1", SiteRound{Site: "site1"}, lostSite("site2", "dial refused"), lostSite("site0", "timeout")),
		roundOf("step 2", SiteRound{Site: "site0"}, SiteRound{Site: "site1"}, SiteRound{Site: "site2"}),
	}}
}

// resumedRounds counts the rounds of s restored from a checkpoint.
func resumedRounds(s *ExecStats) int {
	n := 0
	for _, r := range s.Rounds {
		if r.Resumed {
			n++
		}
	}
	return n
}

// roundSites lists the distinct sites that list names in any round of s,
// in first-occurrence order.
func roundSites(s *ExecStats, list func(*RoundStats) []string) []string {
	var out []string
	for i := range s.Rounds {
		for _, site := range list(&s.Rounds[i]) {
			if !slices.Contains(out, site) {
				out = append(out, site)
			}
		}
	}
	return out
}

func TestExecStatsPartialAccounting(t *testing.T) {
	s := partialStats()
	if !s.Partial() {
		t.Fatal("stats with lost sites not marked partial")
	}

	// LostSites dedups across rounds and keeps first-loss order by round:
	// site2 was lost in round 1, site0 only in round 2.
	if lost := s.LostSites(); len(lost) != 2 || lost[0] != "site2" || lost[1] != "site0" {
		t.Errorf("LostSites = %v, want [site2 site0]", lost)
	}

	cov := s.Coverage()
	// Per-round coverage counts the live records against all of the
	// round's records, so a round's denominator reflects its own losses.
	if !strings.Contains(cov, "round base: 2/3 sites answered") {
		t.Errorf("coverage misses base round accounting:\n%s", cov)
	}
	if !strings.Contains(cov, "round step 1: 1/3 sites answered") {
		t.Errorf("coverage misses step 1 accounting:\n%s", cov)
	}
	// A fully-answered round must not appear in the coverage report.
	if strings.Contains(cov, "step 2") {
		t.Errorf("coverage lists the complete round:\n%s", cov)
	}
	// Both failure causes are named.
	if !strings.Contains(cov, "site2 (dial refused)") || !strings.Contains(cov, "site0 (timeout)") {
		t.Errorf("coverage drops failure causes:\n%s", cov)
	}
	if !strings.Contains(s.String(), "PARTIAL RESULT") {
		t.Error("String() does not flag the partial result")
	}
}

func TestExecStatsCompleteExecution(t *testing.T) {
	s := &ExecStats{Rounds: []RoundStats{
		roundOf("base", SiteRound{Site: "site0"}, SiteRound{Site: "site1"}),
		roundOf("step 1", SiteRound{Site: "site0"}, SiteRound{Site: "site1"}),
	}}
	if s.Partial() {
		t.Error("complete execution marked partial")
	}
	if lost := s.LostSites(); len(lost) != 0 {
		t.Errorf("LostSites = %v, want none", lost)
	}
	if cov := s.Coverage(); cov != "" {
		t.Errorf("Coverage() = %q, want empty for a complete execution", cov)
	}
	if strings.Contains(s.String(), "PARTIAL RESULT") {
		t.Error("String() flags a complete execution as partial")
	}
}

func TestExecStatsRepeatedLossDedup(t *testing.T) {
	// The same logical site lost in every round counts once.
	s := &ExecStats{Rounds: []RoundStats{
		roundOf("base", lostSite("site1", "down")),
		roundOf("step 1", lostSite("site1", "down")),
		roundOf("step 2", lostSite("site1", "down")),
	}}
	if lost := s.LostSites(); len(lost) != 1 || lost[0] != "site1" {
		t.Errorf("LostSites = %v, want [site1] exactly once", lost)
	}
	// Every degraded round still gets its own coverage line.
	if n := strings.Count(s.Coverage(), "site1 (down)"); n != 3 {
		t.Errorf("coverage lines = %d, want 3:\n%s", n, s.Coverage())
	}
}

func TestExecStatsTimeAndByteTotals(t *testing.T) {
	s := &ExecStats{Rounds: []RoundStats{
		{BytesToSites: 100, BytesFromSites: 40, GroupsShipped: 10, GroupsReceived: 4,
			SiteTime: 3 * time.Millisecond, CoordTime: time.Millisecond, CommTime: 2 * time.Millisecond},
		{BytesToSites: 50, BytesFromSites: 60, GroupsShipped: 5, GroupsReceived: 6,
			SiteTime: 2 * time.Millisecond, CoordTime: time.Millisecond, CommTime: time.Millisecond},
	}}
	if got := s.Bytes(); got != 250 {
		t.Errorf("Bytes() = %d, want 250", got)
	}
	if got := s.Groups(); got != 25 {
		t.Errorf("Groups() = %d, want 25", got)
	}
	if got := s.EvalTime(); got != 10*time.Millisecond {
		t.Errorf("EvalTime() = %v, want 10ms (site 5 + coord 2 + comm 3)", got)
	}
}

func TestExecStatsJSONDeterministic(t *testing.T) {
	// Site records arrive in fan-out completion order, which varies run
	// to run; the JSON encoding must not.
	s0 := SiteRound{Site: "site0", BytesSent: 60, BytesRecv: 10, Compute: 3 * time.Millisecond}
	s1 := SiteRound{Site: "site1", BytesSent: 30, BytesRecv: 20, Compute: time.Millisecond}
	s2 := SiteRound{Site: "site2", BytesSent: 10, BytesRecv: 10, Compute: 2 * time.Millisecond}
	l3, l4 := lostSite("site3", "timeout"), lostSite("site4", "dial refused")
	a := &ExecStats{Rounds: []RoundStats{roundOf("base", s2, l4, s0, s1, l3)}, Wall: 5 * time.Millisecond}
	b := &ExecStats{Rounds: []RoundStats{roundOf("base", s1, l3, s2, s0, l4)}, Wall: 5 * time.Millisecond}

	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("permuted site order changed JSON:\n%s\nvs\n%s", ja, jb)
	}
	var decoded struct {
		Rounds []struct {
			Responded []string `json:"responded"`
		} `json:"rounds"`
		Bytes     int64    `json:"bytes"`
		Partial   bool     `json:"partial"`
		LostSites []string `json:"lost_sites"`
	}
	if err := json.Unmarshal(ja, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Bytes != 140 || !decoded.Partial {
		t.Errorf("bytes=%d partial=%v, want 140 true", decoded.Bytes, decoded.Partial)
	}
	if len(decoded.Rounds) != 1 || strings.Join(decoded.Rounds[0].Responded, ",") != "site0,site1,site2" {
		t.Errorf("responded not sorted: %+v", decoded.Rounds)
	}
	if strings.Join(decoded.LostSites, ",") != "site3,site4" {
		t.Errorf("lost_sites not sorted: %v", decoded.LostSites)
	}
}
