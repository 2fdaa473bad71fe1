package core

//lint:deterministic stats JSON must encode identically run to run

import (
	"encoding/json"
	"sort"
)

// MarshalJSON encodes the round through the tags on RoundStats and
// SiteRound and adds the keys derived from Sites. Durations are integer
// nanoseconds and Sites is kept sorted by add, so the encoding is
// byte-identical across runs regardless of fan-out completion order.
// Decoding (checkpoints) reads the tagged fields only: the derived keys
// are recomputed, never trusted.
func (r RoundStats) MarshalJSON() ([]byte, error) {
	type tagged RoundStats // the fields and tags without this method
	responded := r.Responded()
	if responded == nil {
		responded = []string{}
	}
	return json.Marshal(struct {
		tagged
		Responded      []string    `json:"responded"`
		Lost           []SiteRound `json:"lost,omitempty"`
		Replayed       []string    `json:"replayed,omitempty"`
		Hedged         []string    `json:"hedged,omitempty"`
		StragglerX1000 int64       `json:"straggler_ratio_x1000,omitempty"`
		ImbalanceX1000 int64       `json:"row_imbalance_x1000,omitempty"`
	}{
		tagged(r), responded, r.Lost(), r.Replayed(), r.Hedged(),
		int64(r.StragglerRatio() * 1000), int64(r.RowImbalance() * 1000),
	})
}

// JSON renders the execution as deterministic, machine-readable JSON — the
// one document behind skalla-coord -stats-json, the coordinator's
// /profiles entries and (per round) the checkpoint files: the rounds with
// their per-site records, plus the derived execution totals. Only the
// *_ns fields vary between runs of the same query; scripts that diff
// stats byte-for-byte should mask them.
func (s *ExecStats) JSON() ([]byte, error) {
	lost := s.LostSites()
	sort.Strings(lost)
	rounds := s.Rounds
	if rounds == nil {
		rounds = []RoundStats{}
	}
	return json.MarshalIndent(struct {
		QueryID   string       `json:"query_id,omitempty"`
		Rounds    []RoundStats `json:"rounds"`
		Bytes     int64        `json:"bytes"`
		Groups    int64        `json:"groups"`
		SiteNs    int64        `json:"site_ns"`
		CoordNs   int64        `json:"coord_ns"`
		CommNs    int64        `json:"comm_ns"`
		EvalNs    int64        `json:"eval_ns"`
		WallNs    int64        `json:"wall_ns"`
		Partial   bool         `json:"partial"`
		LostSites []string     `json:"lost_sites,omitempty"`
	}{
		s.QueryID, rounds, s.Bytes(), s.Groups(),
		int64(s.SiteTime()), int64(s.CoordTime()), int64(s.CommTime()), int64(s.EvalTime()),
		int64(s.Wall), s.Partial(), lost,
	}, "", "  ")
}
