package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/transport"
)

// SiteRound is one site's part in one synchronization round — the single
// accounting record of the system. The paper's cost argument (Theorems
// 1–2, Fig. 2) is a count of what each site ships and computes per round;
// this is that count, measured once in the fan-out. Round totals,
// execution totals, query profiles, the coord.* counters, EXPLAIN ANALYZE
// and every JSON view are derived from it.
type SiteRound struct {
	// Site is the logical site identifier.
	Site string `json:"site"`
	// Lost marks a site that contributed nothing to the round: it (and
	// all its replicas, when it is a replica set) failed, timed out or
	// was skipped as not ready. Err is the failure. A lost site's numeric
	// fields are all zero, so the live entries alone sum to the round
	// totals.
	Lost bool   `json:"lost,omitempty"`
	Err  string `json:"err,omitempty"`
	// BytesSent / BytesRecv are this site's exact wire bytes, the Delta
	// that travels with the call (transport.Exchange).
	BytesSent int64 `json:"bytes_to_site"`
	BytesRecv int64 `json:"bytes_from_site"`
	// RowsShipped / RowsReturned count base-result rows moved.
	RowsShipped  int64 `json:"rows_shipped"`
	RowsReturned int64 `json:"rows_returned"`
	// Compute is the site's self-reported evaluation time; Comm the
	// modeled transfer time of its exchange.
	Compute time.Duration `json:"compute_ns"`
	Comm    time.Duration `json:"comm_ns"`
	// Replays is how many times the client's retry layer re-sent the
	// round request (Delta.Retries) before this result arrived; the JSON
	// key is the v1 statistics document's.
	Replays int `json:"replays,omitempty"`
	// Hedges is how many duplicate replica sends (hedges or failovers)
	// were launched for the round request before this result arrived.
	Hedges int `json:"hedges,omitempty"`
	// Remote is the site-side profile piggy-backed on the response of a
	// QueryID-tagged request; nil for untagged executions, sites that
	// predate the QueryID protocol, and lost sites.
	Remote *transport.SiteProfile `json:"remote,omitempty"`
}

// String renders "site (error)" for a lost site.
func (sr SiteRound) String() string { return fmt.Sprintf("%s (%s)", sr.Site, sr.Err) }

// RoundStats records one synchronization round of a plan execution.
// Durations encode as integer nanoseconds.
type RoundStats struct {
	// Name labels the round ("base", "step 1", ...).
	Name string `json:"name"`
	// Sites holds every site's part in the round, sorted by site ID. Lost
	// entries appear only in degraded (allow-partial) executions —
	// otherwise a lost site aborts the query.
	Sites []SiteRound `json:"sites,omitempty"`
	// BytesToSites / BytesFromSites are exact wire sizes.
	BytesToSites   int64 `json:"bytes_to_sites"`
	BytesFromSites int64 `json:"bytes_from_sites"`
	// GroupsShipped / GroupsReceived count base-result rows moved.
	GroupsShipped  int64 `json:"groups_shipped"`
	GroupsReceived int64 `json:"groups_received"`
	// SiteTime is the slowest site's computation time (sites run in
	// parallel); SiteTimeTotal sums all sites' computation.
	SiteTime      time.Duration `json:"site_ns"`
	SiteTimeTotal time.Duration `json:"site_total_ns"`
	// CommTime is the slowest site's modeled transfer time this round.
	CommTime time.Duration `json:"comm_ns"`
	// CoordTime is the coordinator's own work (filtering, merging).
	CoordTime time.Duration `json:"coord_ns"`
	// Resumed marks a round restored from a checkpoint instead of
	// executed: its record was carried over from the interrupted run, so
	// totals still match an uninterrupted execution.
	Resumed bool `json:"resumed,omitempty"`
}

// add files one site's record under the round, keeping Sites sorted by
// site ID, and folds a live site into the round totals. It is the only
// writer of the totals, which is what makes Sites a decomposition of them
// rather than a second measurement.
func (r *RoundStats) add(sr SiteRound) {
	i, _ := slices.BinarySearchFunc(r.Sites, sr.Site, func(s SiteRound, id string) int { return strings.Compare(s.Site, id) })
	r.Sites = slices.Insert(r.Sites, i, sr)
	if sr.Lost {
		return
	}
	r.BytesToSites += sr.BytesSent
	r.BytesFromSites += sr.BytesRecv
	r.GroupsShipped += sr.RowsShipped
	r.GroupsReceived += sr.RowsReturned
	r.SiteTimeTotal += sr.Compute
	r.SiteTime = max(r.SiteTime, sr.Compute)
	r.CommTime = max(r.CommTime, sr.Comm)
}

// The site predicates behind the derived lists.
func isLost(s *SiteRound) bool   { return s.Lost }
func answered(s *SiteRound) bool { return !s.Lost }
func replayed(s *SiteRound) bool { return s.Replays > 0 }
func hedged(s *SiteRound) bool   { return s.Hedges > 0 }

// sitesWhere lists the IDs of the sites matching keep, in site order.
func (r *RoundStats) sitesWhere(keep func(*SiteRound) bool) []string {
	var out []string
	for i := range r.Sites {
		if keep(&r.Sites[i]) {
			out = append(out, r.Sites[i].Site)
		}
	}
	return out
}

// Responded lists the sites whose fragments were merged this round.
func (r *RoundStats) Responded() []string {
	return r.sitesWhere(answered)
}

// Replayed lists the sites whose round request had to be re-sent
// before their fragment arrived.
func (r *RoundStats) Replayed() []string {
	return r.sitesWhere(replayed)
}

// Hedged lists the sites whose round request was duplicated to a replica
// before their fragment arrived.
func (r *RoundStats) Hedged() []string {
	return r.sitesWhere(hedged)
}

// Lost returns the records of the sites that contributed nothing this
// round.
func (r *RoundStats) Lost() []SiteRound {
	var out []SiteRound
	for _, s := range r.Sites {
		if s.Lost {
			out = append(out, s)
		}
	}
	return out
}

// StragglerRatio measures how much the round's slowest site dominated:
// max site compute time over the median site compute time across the
// live sites. 1.0 means a perfectly balanced round; 0 when fewer than
// two sites answered or the median is zero (sub-resolution rounds carry
// no straggler signal).
func (r *RoundStats) StragglerRatio() float64 {
	ns := make([]time.Duration, 0, len(r.Sites))
	for i := range r.Sites {
		if !r.Sites[i].Lost {
			ns = append(ns, r.Sites[i].Compute)
		}
	}
	if len(ns) < 2 {
		return 0
	}
	slices.Sort(ns)
	var median float64
	if n := len(ns); n%2 == 1 {
		median = float64(ns[n/2])
	} else {
		median = float64(ns[n/2-1]+ns[n/2]) / 2
	}
	if median <= 0 {
		return 0
	}
	return float64(ns[len(ns)-1]) / median
}

// SlowestSite returns the live site with the largest compute time (ties
// break to the lexically first ID, keeping the answer deterministic), or
// "" when no site answered.
func (r *RoundStats) SlowestSite() string {
	best := ""
	var bestNs time.Duration = -1
	for i := range r.Sites { // sorted by site: the first maximum wins ties
		if s := &r.Sites[i]; !s.Lost && s.Compute > bestNs {
			best, bestNs = s.Site, s.Compute
		}
	}
	return best
}

// RowImbalance measures data skew: the maximum rows returned by any live
// site over the mean across live sites. 1.0 is a perfectly even spread;
// 0 when fewer than two sites answered or no rows came back.
func (r *RoundStats) RowImbalance() float64 {
	var live, sum, most int64
	for i := range r.Sites {
		if s := &r.Sites[i]; !s.Lost {
			live++
			sum += s.RowsReturned
			most = max(most, s.RowsReturned)
		}
	}
	if live < 2 || sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(live)
	return float64(most) / mean
}

// ExecStats aggregates a full plan execution. Tagged with a QueryID it is
// the execution's query profile: the per-site records carry the profiles
// the sites piggy-backed on their responses.
type ExecStats struct {
	// QueryID is the tag the coordinator propagated on the wire; empty
	// for untagged executions.
	QueryID string
	Rounds  []RoundStats
	// Wall is the measured end-to-end wall-clock time of Execute, on
	// success and failure alike.
	Wall time.Duration
}

// Partial reports whether any round lost a site, i.e. the result is a
// degraded partial answer covering only the responding sites.
func (s *ExecStats) Partial() bool {
	for i := range s.Rounds {
		for j := range s.Rounds[i].Sites {
			if s.Rounds[i].Sites[j].Lost {
				return true
			}
		}
	}
	return false
}

// LostSites returns the distinct logical sites lost in any round, in
// first-occurrence order (by round, then by site ID).
func (s *ExecStats) LostSites() []string {
	seen := map[string]bool{}
	var out []string
	for i := range s.Rounds {
		for _, site := range s.Rounds[i].sitesWhere(isLost) {
			if !seen[site] {
				seen[site] = true
				out = append(out, site)
			}
		}
	}
	return out
}

// Coverage renders per-round coverage ("round base: 3/4 sites, lost
// site2 (...)") for degraded executions; empty when nothing was lost.
func (s *ExecStats) Coverage() string {
	var b strings.Builder
	for _, r := range s.Rounds {
		lost := r.Lost()
		if len(lost) == 0 {
			continue
		}
		names := make([]string, len(lost))
		for i, l := range lost {
			names[i] = l.String()
		}
		fmt.Fprintf(&b, "round %s: %d/%d sites answered, lost %s\n",
			r.Name, len(r.Sites)-len(lost), len(r.Sites), strings.Join(names, ", "))
	}
	return b.String()
}

// Bytes returns total bytes moved in both directions.
func (s *ExecStats) Bytes() int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.BytesToSites + r.BytesFromSites
	}
	return n
}

// Groups returns the total number of base-result rows shipped either way.
func (s *ExecStats) Groups() int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.GroupsShipped + r.GroupsReceived
	}
	return n
}

// SiteTime returns the response-time contribution of site computation:
// the per-round maxima summed over rounds.
func (s *ExecStats) SiteTime() time.Duration {
	var d time.Duration
	for _, r := range s.Rounds {
		d += r.SiteTime
	}
	return d
}

// CoordTime returns total coordinator computation time.
func (s *ExecStats) CoordTime() time.Duration {
	var d time.Duration
	for _, r := range s.Rounds {
		d += r.CoordTime
	}
	return d
}

// CommTime returns the response-time contribution of communication: the
// per-round maxima summed over rounds.
func (s *ExecStats) CommTime() time.Duration {
	var d time.Duration
	for _, r := range s.Rounds {
		d += r.CommTime
	}
	return d
}

// EvalTime is the modeled query evaluation time the experiments report:
// site computation + coordinator computation + communication, composed
// per round as the paper's response-time model does.
func (s *ExecStats) EvalTime() time.Duration {
	return s.SiteTime() + s.CoordTime() + s.CommTime()
}

// String renders a per-round breakdown table.
func (s *ExecStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %8s %8s %12s %12s %12s\n",
		"round", "bytes→sites", "bytes←sites", "grp→", "grp←", "site(max)", "coord", "comm")
	for _, r := range s.Rounds {
		fmt.Fprintf(&b, "%-8s %12d %12d %8d %8d %12s %12s %12s\n",
			r.Name, r.BytesToSites, r.BytesFromSites, r.GroupsShipped, r.GroupsReceived,
			r.SiteTime.Round(time.Microsecond), r.CoordTime.Round(time.Microsecond),
			r.CommTime.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total: %d bytes, eval time %s (site %s + coord %s + comm %s), wall %s\n",
		s.Bytes(), s.EvalTime().Round(time.Microsecond),
		s.SiteTime().Round(time.Microsecond), s.CoordTime().Round(time.Microsecond),
		s.CommTime().Round(time.Microsecond), s.Wall.Round(time.Microsecond))
	if s.Partial() {
		fmt.Fprintf(&b, "PARTIAL RESULT — coverage:\n%s", s.Coverage())
	}
	return b.String()
}
