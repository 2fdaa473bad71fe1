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

// TestVecObsCounters: a site publishes every request's kernel work, tagged
// or not, from the one record its profile reports: the vec.* counters
// grow by the profile's numbers, and the selectivity gauge is the
// request's own.
func TestVecObsCounters(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)
	req := func(queryID string) *transport.Request {
		spec := roundSpec(false, false)
		spec.Thetas = []string{"F.SourceAS = B.SourceAS AND F.NumBytes > 100"}
		return &transport.Request{
			Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS", "DestAS"},
			Rounds: []transport.RoundSpec{spec}, QueryID: queryID,
		}
	}
	if err := e.Handle(context.Background(), req("")).Error(); err != nil {
		t.Fatal(err)
	}
	batches, rows := o.Metrics.CounterValue("vec.batches"), o.Metrics.CounterValue("vec.rows")
	if batches <= 0 || rows <= 0 {
		t.Fatalf("untagged request: vec.batches = %d, vec.rows = %d, want both > 0", batches, rows)
	}
	resp := e.Handle(context.Background(), req("q1"))
	if err := resp.Error(); err != nil {
		t.Fatal(err)
	}
	p := resp.Profile
	if got := o.Metrics.CounterValue("vec.batches") - batches; got != p.VecBatches {
		t.Errorf("vec.batches grew by %d, the profile says %d", got, p.VecBatches)
	}
	if got := o.Metrics.CounterValue("vec.rows") - rows; got != p.VecRows {
		t.Errorf("vec.rows grew by %d, the profile says %d", got, p.VecRows)
	}
	if p.VecFilterRows == 0 {
		t.Fatal("the residual filter ran over no rows")
	}
	if got, want := o.Metrics.Gauge("vec.selectivity").Value(), p.VecSelected*1000/p.VecFilterRows; got != want {
		t.Errorf("vec.selectivity = %d‰, want the request's %d‰", got, want)
	}
}
