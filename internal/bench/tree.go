package bench

import (
	"fmt"

	"repro/internal/tpcr"
	"repro/skalla"
)

// TreePoint is one topology of the multi-tier experiment.
type TreePoint struct {
	Label  string
	Relays int
	M      Measure
}

// TreeResult compares a flat coordinator against spanning-tree topologies
// with relay tiers pre-merging sub-aggregates — the paper's future-work
// architecture (§6), evaluated here as an extension.
type TreeResult struct {
	Leaves int
	Points []TreePoint
}

// TreeExperiment runs the group reduction query over the same leaf data
// under a flat coordinator and under relay trees of decreasing fanout.
func TreeExperiment(cfg Config) (*TreeResult, error) {
	cfg = cfg.Defaults()
	leaves := cfg.Sites * 2 // trees get interesting past the flat width
	q := GroupReductionQuery(HighCard)
	opts := skalla.Options{GroupReduceSites: true}
	tc := cfg.tpcrConfig()

	out := &TreeResult{Leaves: leaves}
	measure := func(label string, relays int, cluster *skalla.Cluster) error {
		defer cluster.Close()
		if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(tc)); err != nil {
			return fmt.Errorf("bench: tree %s: %w", label, err)
		}
		var best Measure
		for rep := 0; rep < cfg.Repeat; rep++ {
			res, err := cluster.Query(q, "tpcr", opts)
			if err != nil {
				return fmt.Errorf("bench: tree %s: %w", label, err)
			}
			s := res.Stats
			m := Measure{
				EvalTime: s.EvalTime(), SiteTime: s.SiteTime(),
				CoordTime: s.CoordTime(), CommTime: s.CommTime(),
				Bytes: s.Bytes(), Rounds: len(s.Rounds), ResultRows: res.Relation.Len(),
			}
			for _, r := range s.Rounds {
				m.Shipped += r.GroupsShipped
				m.Received += r.GroupsReceived
			}
			if rep == 0 || m.EvalTime < best.EvalTime {
				best = m
			}
		}
		out.Points = append(out.Points, TreePoint{Label: label, Relays: relays, M: best})
		return nil
	}

	flat, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: leaves, Cost: cfg.Cost})
	if err != nil {
		return nil, err
	}
	if err := measure("flat", leaves, flat); err != nil {
		return nil, err
	}
	for _, fanout := range []int{2, 4, 8} {
		if fanout >= leaves {
			continue
		}
		tree, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: leaves, Fanout: fanout, Cost: cfg.Cost})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("tree fanout=%d", fanout)
		if err := measure(label, (leaves+fanout-1)/fanout, tree); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String renders the comparison.
func (r *TreeResult) String() string {
	t := &table{
		title: fmt.Sprintf("Multi-tier extension: %d leaves, flat vs relay trees (root-link traffic)", r.Leaves),
		header: []string{
			"topology", "root peers", "time (ms)", "root KB", "grp→", "grp←",
		},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprint(p.Relays), ms(p.M.EvalTime), kb(p.M.Bytes),
			fmt.Sprint(p.M.Shipped), fmt.Sprint(p.M.Received))
	}
	return t.String()
}
