package skalla

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// Prepared is a planned query that can execute repeatedly without
// re-planning: the Egil optimizer runs once, the plan is reused. Useful
// for dashboard-style workloads that issue the same OLAP query against
// changing site data.
type Prepared struct {
	cluster *Cluster
	plan    *Plan
}

// Prepare plans a query for repeated execution under the given options.
// The plan captures the current catalog knowledge and detail schemas;
// re-prepare after changing either.
func (c *Cluster) Prepare(q Query, detail string, opts Options) (*Prepared, error) {
	return c.PrepareContext(context.Background(), q, detail, opts)
}

// PrepareContext is Prepare under a caller-supplied context: planning
// fetches detail schemas from the sites, and cancelling the context (or
// hitting its deadline) aborts those calls.
func (c *Cluster) PrepareContext(ctx context.Context, q Query, detail string, opts Options) (*Prepared, error) {
	plan, err := c.coord.Plan(ctx, q, detail, core.Egil{Catalog: c.cat, Options: opts})
	if err != nil {
		return nil, err
	}
	return &Prepared{cluster: c, plan: plan}, nil
}

// Plan returns the underlying distributed plan.
func (p *Prepared) Plan() *Plan { return p.plan }

// Execute runs the prepared plan against the cluster's current data.
func (p *Prepared) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext runs the prepared plan under a context; cancelling it
// aborts all in-flight site calls.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	rel, stats, err := p.cluster.coord.Execute(ctx, p.plan)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: stats, Plan: p.plan}, nil
}

// SiteStatus reports one site's state, as seen by the coordinator.
type SiteStatus struct {
	ID        string
	Reachable bool
	Err       string
	// Relations maps relation name to row count for the relations the
	// caller asked about.
	Relations map[string]int
}

// Status pings every site and reports reachability plus the row counts of
// the named relations (missing relations are omitted from the map).
func (c *Cluster) Status(relations ...string) []SiteStatus {
	return c.StatusContext(context.Background(), relations...)
}

// StatusContext is Status under a caller-supplied context, bounding the
// ping and relation-info exchanges with every site. Sites are asked all
// at once.
func (c *Cluster) StatusContext(ctx context.Context, relations ...string) []SiteStatus {
	out := make([]SiteStatus, len(c.clients))
	c.eachSite(func(i int) error {
		cl := c.clients[i]
		st := SiteStatus{ID: cl.SiteID(), Relations: map[string]int{}}
		if _, err := call(ctx, cl, &transport.Request{Op: transport.OpPing}); err != nil {
			st.Err = err.Error()
		} else {
			st.Reachable = true
			for _, rel := range relations {
				if info, err := call(ctx, cl, &transport.Request{Op: transport.OpRelInfo, Rel: rel}); err == nil {
					st.Relations[rel] = info.RowCount
				}
			}
		}
		out[i] = st
		return nil
	})
	return out
}

// String renders a status line per site.
func (s SiteStatus) String() string {
	if !s.Reachable {
		return fmt.Sprintf("%s: unreachable (%s)", s.ID, s.Err)
	}
	return fmt.Sprintf("%s: ok %v", s.ID, s.Relations)
}
