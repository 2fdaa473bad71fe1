package core

//lint:wrap-errors coordinator errors must preserve site/transport causes for errors.Is/As

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/transport"
)

// Coordinator executes distributed evaluation plans against a set of site
// clients — Alg. GMDJDistribEval of the paper. It maintains the
// base-result structure X, ships it (or per-site reductions of it) to the
// sites each round, and synchronizes the returned sub-aggregates into X
// keyed on the base relation key K (Theorem 1).
//
// Fault tolerance: every site exchange runs under a context. CallTimeout
// bounds each per-site round-trip so a hung site cannot stall a query
// forever, and in strict mode (the default) the first site failure
// cancels the in-flight calls to its siblings — their partial work is
// useless once the round is doomed. With AllowPartial set, failures are
// tolerated instead: the round proceeds with the fragments that arrived
// and the loss is recorded per round in ExecStats (Responded/Lost), so
// callers receive a partial result with explicit coverage metadata rather
// than an error.
type Coordinator struct {
	clients []transport.Client

	// Settings are the behaviours a coordinator shares with every
	// coordinator derived from it (see Derive).
	Settings

	// Epoch overrides the execution epoch; empty derives it from the plan
	// (PlanEpoch), which is what lets a restarted coordinator find its
	// own checkpoint. The epoch keys checkpoints and never goes on the
	// wire.
	Epoch string
	// QueryID, when non-empty, tags every round request with this ID so
	// sites piggy-back per-request profiles on their responses, which
	// land in the per-site records of the returned ExecStats; the
	// execution's statistics are then also published to Obs as a query
	// profile. Empty leaves requests untagged and wire-identical to the
	// pre-profiling protocol.
	QueryID string
}

// Settings groups the coordinator behaviours that describe a deployment
// rather than one execution. They travel together: every place that builds
// another coordinator over the same cluster's clients (a subset, a served
// query, EXPLAIN ANALYZE) takes them whole via Derive.
type Settings struct {
	// CallTimeout bounds each site round-trip; 0 means no per-call bound
	// (the Execute context still applies).
	CallTimeout time.Duration
	// AllowPartial degrades gracefully when sites fail: the query answers
	// from the surviving sites and ExecStats reports the coverage.
	AllowPartial bool
	// Obs, when set, receives spans (query → round → per-site RPC → sync
	// on the trace timeline), per-round counters under "coord.*" whose
	// totals match ExecStats exactly, and site-lost / partial-result
	// events.
	Obs *obs.Obs
	// Checkpoints, when set, persists X and the round statistics after
	// every completed synchronization round and resumes an interrupted
	// execution of the same plan from its last completed round. Round
	// checkpoints are cheap by Theorem 2: X never holds detail data.
	Checkpoints CheckpointStore
}

// NewCoordinator returns a coordinator over the given site clients. The
// clients define the participating sites S_B = S_MD.
func NewCoordinator(clients ...transport.Client) *Coordinator {
	return &Coordinator{clients: clients}
}

// Derive returns a coordinator over other clients with this coordinator's
// Settings. Epoch and QueryID name one execution and are not carried over.
func (c *Coordinator) Derive(clients ...transport.Client) *Coordinator {
	return &Coordinator{clients: clients, Settings: c.Settings}
}

// DetailSchema fetches the schema of the named relation for planning. It
// asks the sites in order and returns the first answer, so a down first
// site does not block planning while any site can describe the relation.
func (c *Coordinator) DetailSchema(ctx context.Context, name string) (*relation.Schema, error) {
	if len(c.clients) == 0 {
		return nil, fmt.Errorf("core: coordinator has no sites")
	}
	var lastErr error
	for _, cl := range c.clients {
		callCtx, done := c.callContext(ctx)
		resp, err := cl.Call(callCtx, &transport.Request{Op: transport.OpRelInfo, Rel: name})
		done()
		if err == nil {
			err = resp.Error()
		}
		if err != nil {
			lastErr = fmt.Errorf("core: site %s: %w", cl.SiteID(), err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		f, err := resp.Frame()
		if err != nil {
			return nil, fmt.Errorf("core: site returned no schema for %q", name)
		}
		return f.Schema, nil
	}
	return nil, lastErr
}

// executionEpoch extends PlanEpoch with the participating site set: the
// same plan over a different set of sites (e.g. a cluster Subset) is a
// different execution and must not resume the other's checkpoint.
func (c *Coordinator) executionEpoch(plan *Plan) string {
	h := fnv.New64a()
	h.Write([]byte(PlanEpoch(plan)))
	for _, cl := range c.clients {
		h.Write([]byte(cl.SiteID()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// callContext derives the per-call context from ctx under CallTimeout.
func (c *Coordinator) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.CallTimeout > 0 {
		return context.WithTimeout(ctx, c.CallTimeout)
	}
	return ctx, func() {}
}

// Plan fetches the schema of every detail relation the query references
// and builds the plan with the given optimizer.
func (c *Coordinator) Plan(ctx context.Context, q gmdj.Query, detailName string, egil Egil) (*Plan, error) {
	schemas := map[string]*relation.Schema{}
	for _, name := range q.DetailNames(detailName) {
		schema, err := c.DetailSchema(ctx, name)
		if err != nil {
			return nil, err
		}
		schemas[name] = schema
	}
	return egil.BuildPlanSchemas(q, detailName, schemas)
}

// Run plans (see Plan) and executes a query in one call.
func (c *Coordinator) Run(ctx context.Context, q gmdj.Query, detailName string, egil Egil) (*relation.Relation, *ExecStats, *Plan, error) {
	plan, err := c.Plan(ctx, q, detailName, egil)
	if err != nil {
		return nil, nil, nil, err
	}
	res, stats, err := c.Execute(ctx, plan)
	return res, stats, plan, err
}

// Execute runs the plan under ctx and returns the final base-result
// structure X. Cancelling ctx aborts all in-flight site calls.
//
// When Obs is set the execution is traced (a "query" span on the
// coordinator track containing one span per round, with each site's RPC
// on its own track) and the per-round statistics are published as
// "coord.*" counters that sum to exactly the returned ExecStats.
func (c *Coordinator) Execute(ctx context.Context, plan *Plan) (*relation.Relation, *ExecStats, error) {
	ctx, span := c.Obs.StartSpanTrack(ctx, "query", obs.TrackCoordinator)
	x, stats, err := c.run(ctx, plan)
	if err != nil {
		span.SetArg("error", err.Error())
	}
	span.End()
	c.publishExec(stats, err)
	if err != nil {
		return nil, nil, err
	}
	return x, stats, nil
}

// run is Execute's body; unlike Execute it returns the partially filled
// statistics alongside an error so the obs layer can publish the rounds
// that did complete.
func (c *Coordinator) run(ctx context.Context, plan *Plan) (*relation.Relation, *ExecStats, error) {
	if len(c.clients) == 0 {
		return nil, nil, fmt.Errorf("core: coordinator has no sites")
	}
	start := time.Now()
	stats := &ExecStats{QueryID: c.QueryID}
	defer func() { stats.Wall = time.Since(start) }()

	var x *relation.Relation

	// Execution identity: the epoch names this execution across restarts,
	// so an interrupted run finds its checkpoint.
	epoch := c.Epoch
	if epoch == "" {
		epoch = c.executionEpoch(plan)
	}

	// Resume: an interrupted execution of this plan left a checkpoint of
	// its last completed round — restore X and the completed rounds'
	// statistics and skip straight to the first unfinished round.
	done := 0
	if c.Checkpoints != nil {
		cp, err := c.Checkpoints.Load(epoch)
		switch {
		case err != nil:
			c.Obs.Count("checkpoint.errors", 1)
			c.Obs.Event(obs.EventCheckpoint, "", "checkpoint load failed; starting fresh",
				map[string]string{"epoch": epoch, "action": "load-error", "error": err.Error()})
		case cp != nil && cp.Done > 0 && cp.Done <= plan.Rounds():
			if x = cp.X; x != nil {
				x = x.Clone() // rows others may hold: no round appends to them
			}
			done = cp.Done
			for _, rs := range cp.Rounds {
				rs.Resumed = true
				stats.Rounds = append(stats.Rounds, rs)
			}
			c.Obs.Count("checkpoint.resumed", 1)
			c.Obs.Event(obs.EventCheckpoint, "",
				fmt.Sprintf("resumed execution after %d completed round(s)", done),
				map[string]string{"epoch": epoch, "round": fmt.Sprint(done - 1), "action": "resumed"})
		}
	}
	saveCkpt := func() {
		if c.Checkpoints == nil {
			return
		}
		cp := &Checkpoint{Epoch: epoch, Done: done, X: x, Rounds: stats.Rounds}
		if err := c.Checkpoints.Save(cp); err != nil {
			c.Obs.Count("checkpoint.errors", 1)
			c.Obs.Event(obs.EventCheckpoint, "", "checkpoint write failed",
				map[string]string{"epoch": epoch, "round": fmt.Sprint(done - 1), "action": "write-error", "error": err.Error()})
			return
		}
		c.Obs.Count("checkpoint.written", 1)
		c.Obs.Event(obs.EventCheckpoint, "", "checkpoint written",
			map[string]string{"epoch": epoch, "round": fmt.Sprint(done - 1), "action": "written"})
	}

	for seq := done; seq < len(plan.Steps); seq++ {
		rs, merged, err := c.round(ctx, x, plan, seq)
		if err != nil {
			return nil, stats, err
		}
		x, done = merged, seq+1
		stats.Rounds = append(stats.Rounds, rs)
		saveCkpt()
	}

	// The execution completed: its checkpoint can never be resumed again
	// (a rerun of the same plan is a fresh execution, not a recovery).
	if c.Checkpoints != nil {
		if err := c.Checkpoints.Clear(epoch); err != nil {
			c.Obs.Count("checkpoint.errors", 1)
			c.Obs.Event(obs.EventCheckpoint, "", "checkpoint clear failed",
				map[string]string{"epoch": epoch, "action": "clear-error", "error": err.Error()})
		} else {
			c.Obs.Count("checkpoint.cleared", 1)
			c.Obs.Event(obs.EventCheckpoint, "", "checkpoint cleared after completion",
				map[string]string{"epoch": epoch, "action": "cleared"})
		}
	}

	return x, stats, nil
}

// round runs step seq of the plan: it exchanges the step's request with
// the sites and finalizes the merged replies into the new X.
func (c *Coordinator) round(ctx context.Context, x *relation.Relation, plan *Plan, seq int) (RoundStats, *relation.Relation, error) {
	step := &plan.Steps[seq]
	rs := RoundStats{Name: step.Name, Sites: make([]SiteRound, 0, len(c.clients))}
	ctx, rspan := c.Obs.StartSpanTrack(ctx, "round:"+step.Name, obs.TrackCoordinator)
	defer rspan.End()
	req := step.Request
	req.Round, req.QueryID = seq, c.QueryID
	m, err := c.exchange(ctx, x, step, req, &rs, false)
	if err != nil {
		return rs, nil, err
	}
	t0 := time.Now()
	merged, err := m.finalized()
	rs.CoordTime += time.Since(t0)
	if err != nil {
		return rs, nil, fmt.Errorf("core: synchronization of %s: %w", step.Name, err)
	}
	return rs, merged, nil
}

// exchange runs one step over the coordinator's sites: it cuts x to what
// each site receives, sends every site its copy of req carrying its cut,
// and merges the replies as they arrive, recording every site's part and
// the coordinator's time in rs. A relay tier (tier) also has the merge
// record which shipped groups some reply answered.
func (c *Coordinator) exchange(ctx context.Context, x *relation.Relation, step *Step, req transport.Request, rs *RoundStats, tier bool) (*keyedMerge, error) {
	coordStart := time.Now()
	var ships map[string]shipment
	if step.ships() {
		var err error
		if ships, err = c.shipments(x, step); err != nil {
			return nil, err
		}
	}
	prepTime := time.Since(coordStart)

	// Stream fragments into the synchronizer as sites finish: the
	// coordinator merges early arrivals while slower sites still compute
	// (the incremental synchronization §3.2 describes).
	stream := c.fanoutStream(ctx, req, ships)
	_, sspan := c.Obs.StartSpanTrack(ctx, "sync:"+step.Name, obs.TrackCoordinator)
	m, mergeTime, err := c.synchronize(x, stream, step, ships, rs, tier)
	sspan.End()
	if err != nil {
		return nil, fmt.Errorf("core: synchronization of %s: %w", step.Name, err)
	}
	rs.CoordTime = prepTime + mergeTime
	return m, nil
}

// streamItem is one arrival on a fan-out stream: the site's record for
// the round and, beside it, the response it answered with — or, for a
// lost site, the failure as an error chain (the record keeps its text).
// client is the site's index in the coordinator's clients.
type streamItem struct {
	SiteRound
	client int
	resp   *transport.Response
	err    error
}

// fanoutStream sends every site, in parallel, its copy of req carrying its
// shipment, and delivers each site's result the moment it arrives. The
// channel closes after all sites have answered (successfully or not). Each
// call is bounded by CallTimeout; in strict mode the first failure cancels
// the in-flight calls of the remaining sites, so a doomed round aborts
// promptly instead of waiting for its slowest member. The coordinator
// sends each call once: re-sending a failed call is the client's retry
// layer's job, and the re-sends it needed come back in the exchange's
// Delta as the site's Replays.
func (c *Coordinator) fanoutStream(ctx context.Context, tmpl transport.Request, ships map[string]shipment) <-chan streamItem {
	roundCtx, cancelRound := context.WithCancel(ctx)
	out := make(chan streamItem, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(cl transport.Client) {
			defer wg.Done()
			req := tmpl
			req.SetBase(ships[cl.SiteID()].base)
			_, span := c.Obs.StartSpanTrack(roundCtx, "rpc:"+req.Op.String(), obs.SiteTrack(cl.SiteID()))
			// wire is the exchange's own traffic, exact however many
			// executions share cl: the round's bytes, and the retries and
			// hedges the client's layers spent on it.
			callCtx, done := c.callContext(roundCtx)
			resp, wire, err := transport.Exchange(callCtx, cl, &req)
			done()
			if err == nil {
				err = resp.Error()
			}
			if err != nil {
				span.SetArg("error", err.Error())
				span.End()
				if !c.AllowPartial {
					cancelRound()
				}
				err = fmt.Errorf("core: site %s: %w", cl.SiteID(), err)
				out <- streamItem{SiteRound: SiteRound{Site: cl.SiteID(), Lost: true, Err: err.Error()}, client: i, err: err}
				return
			}
			span.SetArg("bytes_sent", fmt.Sprint(wire.Sent))
			span.SetArg("bytes_received", fmt.Sprint(wire.Recv))
			if wire.Retries > 0 {
				span.SetArg("retries", fmt.Sprint(wire.Retries))
			}
			if wire.Hedges > 0 {
				span.SetArg("hedges", fmt.Sprint(wire.Hedges))
			}
			span.End()
			sr := SiteRound{
				Site:      cl.SiteID(),
				BytesSent: wire.Sent, BytesRecv: wire.Recv, Comm: wire.Comm,
				Compute: time.Duration(resp.ComputeNs),
				Replays: wire.Retries,
				Hedges:  wire.Hedges,
				Remote:  resp.Profile,
			}
			if base, _ := req.BaseFrame(); base != nil {
				sr.RowsShipped = int64(base.Len())
			}
			if f, err := resp.Frame(); err == nil {
				sr.RowsReturned = int64(f.Len())
			}
			out <- streamItem{SiteRound: sr, client: i, resp: resp}
		}(cl)
	}
	go func() {
		wg.Wait()
		cancelRound()
		close(out)
	}()
	return out
}

// broadcast sends every site req, in parallel, and waits for all of them.
// It returns each site's response and error — a site-side error included —
// by index. Each call is bounded by CallTimeout.
func (c *Coordinator) broadcast(ctx context.Context, req *transport.Request) ([]*transport.Response, []error) {
	resps := make([]*transport.Response, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			callCtx, done := c.callContext(ctx)
			defer done()
			resp, err := cl.Call(callCtx, req)
			if err == nil {
				err = resp.Error()
			}
			if err != nil {
				err = fmt.Errorf("core: site %s: %w", cl.SiteID(), err)
			}
			resps[i], errs[i] = resp, err
		}()
	}
	wg.Wait()
	return resps, errs
}

// betterErr keeps the most informative of two round errors: cancellation
// fallout ("context canceled" from a sibling aborted by first-error
// cancellation) never shadows the root cause.
func betterErr(cur, next error) error {
	switch {
	case cur == nil:
		return next
	case errors.Is(cur, context.Canceled) && !errors.Is(next, context.Canceled):
		return next
	default:
		return cur
	}
}

// publishExec publishes one execution's statistics into the obs sinks:
// counters under "coord.*" summed from the completed rounds (so the
// registry totals always match what ExecStats reports), histograms of
// the per-round time breakdown, and events for lost sites and degraded
// results.
func (c *Coordinator) publishExec(stats *ExecStats, execErr error) {
	if stats == nil {
		return
	}
	o := c.Obs
	if o == nil {
		return
	}
	if stats.QueryID != "" {
		c.publishProfile(stats)
	}
	o.Count("coord.queries", 1)
	if execErr != nil {
		o.Count("coord.queries_failed", 1)
	}
	for _, r := range stats.Rounds {
		o.Count("coord.rounds", 1)
		if r.Resumed {
			o.Count("coord.rounds_resumed", 1)
		}
		o.Count("coord.bytes_to_sites", r.BytesToSites)
		o.Count("coord.bytes_from_sites", r.BytesFromSites)
		o.Count("coord.groups_shipped", r.GroupsShipped)
		o.Count("coord.groups_received", r.GroupsReceived)
		lost := r.Lost()
		o.Count("coord.sites_lost", int64(len(lost)))
		o.Observe("coord.round_site_ns", r.SiteTime.Nanoseconds())
		o.Observe("coord.round_coord_ns", r.CoordTime.Nanoseconds())
		o.Observe("coord.round_comm_ns", r.CommTime.Nanoseconds())
		for _, l := range lost {
			o.Event(obs.EventSiteLost, l.Site, "site contributed nothing to round "+r.Name,
				map[string]string{"round": r.Name, "error": l.Err})
		}
	}
	if stats.Partial() {
		o.Count("coord.queries_partial", 1)
		o.Event(obs.EventPartial, "", "query degraded to a partial result",
			map[string]string{"lost": strings.Join(stats.LostSites(), ",")})
	}
}

// Straggler events fire only when the skew is both large
// (stragglerEventRatio: slowest site at N× the round median) and material
// (stragglerEventMinSite: the slowest site's time itself) — microsecond
// rounds produce huge ratios out of clock noise, not out of skew.
const (
	stragglerEventRatio   = 4.0
	stragglerEventMinSite = 5 * time.Millisecond
)

// publishProfile publishes a QueryID-tagged execution's skew telemetry:
// per-round straggler and row-imbalance histograms (×1000 fixed point),
// straggler events for rounds one site dominated, the encoded statistics
// into the obs /profiles ring, and a per-query latency histogram. Rounds
// restored from a checkpoint were published by the interrupted run.
func (c *Coordinator) publishProfile(stats *ExecStats) {
	o := c.Obs
	o.Count("coord.queries_profiled", 1)
	o.Observe("profile.query_wall_ns", int64(stats.Wall))
	for i := range stats.Rounds {
		r := &stats.Rounds[i]
		if r.Resumed {
			continue
		}
		ratio := r.StragglerRatio()
		if ratio > 0 {
			o.Observe("profile.straggler_x1000", int64(ratio*1000))
		}
		if imb := r.RowImbalance(); imb > 0 {
			o.Observe("profile.row_imbalance_x1000", int64(imb*1000))
		}
		if ratio >= stragglerEventRatio && r.SiteTime >= stragglerEventMinSite {
			o.Event(obs.EventStraggler, r.SlowestSite(),
				fmt.Sprintf("site dominated round %s at %.1fx the median", r.Name, ratio),
				map[string]string{
					"query_id": stats.QueryID, "round": r.Name,
					"ratio_x1000": fmt.Sprint(int64(ratio * 1000)),
				})
		}
	}
	if b, err := stats.JSON(); err == nil {
		o.AddProfile(b)
	}
}

// synchronize merges the sites' sub-aggregate fragments as they arrive
// on the stream (Theorem 1), recording every site's part in rs.
// Incremental consumption is the behavior §3.2 describes: the coordinator
// synchronizes early fragments while slower sites are still computing. It
// returns the merge, which its emitter releases (finalized, or tier and
// then release), and the coordinator time spent merging (excluding time
// blocked waiting on the stream). ships is what each site received, whose
// states-only replies merge by position into the groups of x; nil means
// the base round or a fused step, whose fragments bring the groups
// themselves, keyed on K — the request's BaseCols; on a site-disjoint step
// (Step.disjoint) a key two sites brought fails the round. A relay tier
// (tier) has a positional merge record the groups the replies answered.
func (c *Coordinator) synchronize(x *relation.Relation, stream <-chan streamItem, step *Step, ships map[string]shipment, rs *RoundStats, tier bool) (*keyedMerge, time.Duration, error) {
	var mergeTime time.Duration
	var firstErr error
	fromFragments := ships == nil
	keys := step.Request.BaseCols

	// The merge starts at the first fragment: when fragments bring the
	// groups, the base schema comes from it.
	var m *keyedMerge
	mergeFragment := func(site string, client int, resp *transport.Response) error {
		h, err := resp.Frame()
		if err != nil {
			return err
		}
		// A states-only fragment answers shipped rows by position.
		if !fromFragments {
			if m == nil {
				if m, err = newKeyedMerge(x.Schema, x.Rows, keys, step.Specs, step.room); err != nil {
					return err
				}
				if tier {
					m.kept = make([]byte, (x.Len()+7)/8)
				}
			}
			sh := ships[site]
			return m.merge(h, placement{idx: sh.idx, shipped: sh.base.Len(), kept: resp.Kept})
		}
		// A fragment that brings the groups keys them on K: a group the
		// coordinator never shipped becomes a new base row, its K boxed
		// with room for the columns this and later steps append.
		if m == nil {
			schema, _, err := h.Schema.Project(keys)
			if err != nil {
				return fmt.Errorf("base schema: %w", err)
			}
			if m, err = newKeyedMerge(schema, nil, keys, step.Specs, step.room); err != nil {
				return err
			}
			m.reserve(h.Len()*len(c.clients), len(c.clients)) // as many groups at every site
			m.disjoint, m.partition = step.disjoint(), step.partition
		}
		ps, idx, err := h.Schema.Project(m.schema.Names())
		if err != nil {
			return err
		}
		if !ps.Equal(m.schema) {
			return fmt.Errorf("base columns %s differ from %s", ps, m.schema)
		}
		return m.mergeKeyed(site, client, h, h.Rows(idx, m.room))
	}

	// Consume arrivals; merge each as soon as it lands. Site failures are
	// fatal in strict mode but only coverage loss in degraded mode; merge
	// failures (corrupt or inconsistent fragments), here or at a relay
	// below, are always fatal.
	var mergeErr error
	for it := range stream {
		rs.add(it.SiteRound)
		if errors.Is(it.err, transport.ErrInconsistent) && mergeErr == nil {
			mergeErr = it.err
		}
		if it.err != nil {
			firstErr = betterErr(firstErr, it.err)
			continue
		}
		t0 := time.Now()
		if mergeErr == nil && (c.AllowPartial || firstErr == nil) {
			if err := mergeFragment(it.Site, it.client, it.resp); err != nil {
				mergeErr = fmt.Errorf("site %s fragment: %w: %w", it.Site, err, transport.ErrInconsistent)
			}
		}
		mergeTime += time.Since(t0)
	}
	if mergeErr == nil && firstErr != nil && !c.AllowPartial {
		mergeErr = firstErr
	}
	if mergeErr != nil {
		if m != nil {
			m.release()
		}
		return nil, mergeTime, mergeErr
	}
	if m == nil {
		if firstErr != nil {
			return nil, mergeTime, fmt.Errorf("all sites lost: %w", firstErr)
		}
		return nil, mergeTime, fmt.Errorf("no fragments arrived")
	}
	if fromFragments {
		m.siteOrder()
	}
	return m, mergeTime, nil
}

// shipment is what one site receives in a step that ships X: the frame of
// X's ship columns at the rows it receives and, under a Theorem-4 filter,
// the X row of each shipped row.
type shipment struct {
	base *relation.Frame
	idx  []int // nil: shipped row k is X row k
}

// shipments frames X once for each distinct thing the sites of a step that
// ships it receive: the step's ship columns, read in place from X's rows,
// of the rows its Theorem-4 filter keeps. Every site without a filter gets
// the one frame of every row; a filtered site's frame reads only its kept
// rows. X is validated before it is framed, so a malformed X fails the
// round before any site is called.
func (c *Coordinator) shipments(x *relation.Relation, step *Step) (map[string]shipment, error) {
	if x == nil {
		return nil, fmt.Errorf("core: no base-result structure before %s", step.Name)
	}
	if step.Filters != nil && !x.Schema.Equal(step.xSchema) {
		return nil, fmt.Errorf("core: %s: X is %s, its site filters were bound to %s", step.Name, x.Schema, step.xSchema)
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: X: %w: %w", step.Name, relation.ErrMalformed, err)
	}
	ship := step.Ship
	if ship == nil {
		ship = x.Schema.Names()
	}
	schema, cols, err := x.Schema.Project(ship)
	if err != nil {
		return nil, fmt.Errorf("core: %s ship set: %w", step.Name, err)
	}
	var all *relation.Frame
	out := make(map[string]shipment, len(c.clients))
	for _, cl := range c.clients {
		f := step.filter(cl.SiteID())
		if f == nil {
			if all == nil {
				all = relation.EncodeFrame(schema, x.Len(), nil, relation.RowLanes(x.Rows, cols))
			}
			out[cl.SiteID()] = shipment{base: all}
			continue
		}
		idx, err := filterBase(x, f)
		if err != nil {
			return nil, fmt.Errorf("core: site filter for %s: %w", cl.SiteID(), err)
		}
		rows := make([]relation.Row, len(idx))
		for k, i := range idx {
			rows[k] = x.Rows[i]
		}
		out[cl.SiteID()] = shipment{base: relation.EncodeFrame(schema, len(rows), nil, relation.RowLanes(rows, cols)), idx: idx}
	}
	return out, nil
}

// filterBase decides a Theorem-4 site filter on the rows of X: the
// positions of the rows it keeps.
func filterBase(x *relation.Relation, f *expr.Bound) ([]int, error) {
	idx := []int{}
	for i, row := range x.Rows {
		ok, err := f.EvalBool(row, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			idx = append(idx, i)
		}
	}
	return idx, nil
}
