package site

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestProfileEntryShape: a tagged request leaves one entry in the site's
// /profiles ring — the SiteProfile under an envelope naming the request.
// The keys are the ones readers of the ring rely on.
func TestProfileEntryShape(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"},
		QueryID: "q1", Round: 3,
	})
	if err := resp.Error(); err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(o.Profiles.EncodeJSON(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("profile ring holds %d entries, want 1", len(entries))
	}
	got := entries[0]
	for _, key := range []string{
		"query_id", "site", "op", "round", "outcome", "wall_ns",
		"rows_in", "rows_out", "bytes_in_approx", "bytes_out_approx", "rounds",
		"vec_batches", "vec_rows", "vec_filter_rows", "vec_selected",
	} {
		if _, ok := got[key]; !ok {
			t.Errorf("profile entry lacks %q: %v", key, got)
		}
	}
	if got["query_id"] != "q1" || got["round"] != 3.0 ||
		got["op"] != "evalRounds" || got["outcome"] != transport.OutcomeOK ||
		got["rows_out"] != float64(resp.Profile.RowsOut) {
		t.Errorf("profile entry = %v", got)
	}
}
