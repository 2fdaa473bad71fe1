package site

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
)

// TestBaseRoundIsZeroRoundEval: an evaluation request with Detail and
// BaseCols and no rounds is the base round. Its reply is encoded exactly as
// the retired base-values op answered: the base-values relation and the
// compute time, a profile with the rows and the frame's bytes out alone,
// and a limit refusal with its code.
func TestBaseRoundIsZeroRoundEval(t *testing.T) {
	// encode renders a reply's fields, Rel as its frame.
	encode := func(resp *transport.Response) string {
		var frame []byte
		if f, err := resp.Frame(); err == nil {
			frame = f.Bytes()
		}
		var profile transport.SiteProfile
		if resp.Profile != nil {
			profile = *resp.Profile
		}
		return fmt.Sprintf("%q %d %d %d %v %+v %x %x", resp.Err, resp.Code, resp.RowCount, resp.ComputeNs, resp.Profile != nil, profile, resp.Kept, frame)
	}
	for _, where := range []string{"", "F.NumBytes >= 300"} {
		def := gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}}
		if where != "" {
			def.Where = expr.MustParse(where)
		}
		ref, err := gmdj.EvalBase(flowRel(testFlow...), def)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, ref.Len() - 1} {
			for _, query := range []string{"", "q1"} {
				e := loadedEngine(t)
				e.SetLimits(Limits{MaxResultRows: limit})
				got := e.Handle(context.Background(), &transport.Request{
					Op: transport.OpEvalRounds, Detail: "flow", BaseCols: def.Cols, BaseWhere: where, QueryID: query,
				})
				want := &transport.Response{Rel: ref, ComputeNs: got.ComputeNs}
				outcome := transport.OutcomeOK
				if limit > 0 {
					want = &transport.Response{
						Err: fmt.Sprintf("evalRounds: site s1: result of %d rows exceeds max-result-rows %d: transport: site overloaded",
							ref.Len(), limit),
						Code: transport.CodeOverloaded,
					}
					outcome = transport.OutcomeOverloaded
				}
				if query != "" {
					if got.Profile == nil {
						t.Fatalf("where %q, limit %d: tagged request got no profile", where, limit)
					}
					want.Profile = &transport.SiteProfile{WallNs: got.Profile.WallNs, Outcome: outcome}
					if limit == 0 {
						want.Profile.RowsOut, want.Profile.BytesOutApprox = ref.Len(), int64(len(relation.AppendFrame(nil, ref)))
					}
				}
				if g, w := encode(got), encode(want); g != w {
					t.Errorf("where %q, limit %d, query %q: reply %+v (profile %+v), want %+v (profile %+v)",
						where, limit, query, got, got.Profile, want, want.Profile)
				}
			}
		}
	}
}

// TestZeroRoundRequestsRefused: a request with no rounds must name a base
// to compute, and the retired ops, base-values op 3 and drop op 5, are
// unknown ops.
func TestZeroRoundRequestsRefused(t *testing.T) {
	e := loadedEngine(t)
	for _, req := range []*transport.Request{
		{Op: transport.OpEvalRounds, BaseCols: []string{"SourceAS"}},
		{Op: transport.OpEvalRounds, Detail: "flow"},
		{Op: transport.OpEvalRounds, Base: flowRel(testFlow...)},
	} {
		if resp := e.Handle(context.Background(), req); resp.Error() == nil {
			t.Errorf("zero-round request %+v answered %+v", req, resp)
		}
	}
	resp := e.Handle(context.Background(), &transport.Request{Op: 3, Detail: "flow", BaseCols: []string{"SourceAS"}})
	if resp.Error() == nil || !strings.Contains(resp.Err, "unknown op 3") {
		t.Errorf("op 3 answered %+v; want an unknown-op refusal", resp)
	}
	resp = e.Handle(context.Background(), &transport.Request{Op: 5, Rel: "flow"})
	if resp.Error() == nil || !strings.Contains(resp.Err, "unknown op 5") {
		t.Errorf("op 5 answered %+v; want an unknown-op refusal", resp)
	}
}
