package skalla

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/site"
	"repro/internal/transport"
)

// TreeConfig configures a multi-tier (spanning-tree) cluster — the
// paper's future-work architecture (§6): leaf warehouse sites are grouped
// under relay tiers that pre-merge sub-aggregates, and the coordinator
// talks only to the relays.
type TreeConfig struct {
	// Leaves is the number of warehouse sites holding data.
	Leaves int
	// Fanout is the number of leaves per relay (default 2).
	Fanout int
	// Cost models every link (coordinator↔relay and relay↔leaf).
	Cost CostModel
}

// NewTreeCluster starts an in-process multi-tier cluster. The returned
// Cluster's sites are the relays; Load addresses the leaves directly
// (relays cannot split shipped relations), while Generate and Query flow
// through the tree.
func NewTreeCluster(cfg TreeConfig) (*Cluster, error) {
	registerGenerators()
	if cfg.Leaves <= 0 {
		return nil, fmt.Errorf("skalla: tree cluster needs leaves")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	leafSpecs := make([]transport.SiteSpec, cfg.Leaves)
	for i := range leafSpecs {
		eng := site.NewEngine(fmt.Sprintf("leaf%d", i))
		leafSpecs[i] = transport.SiteSpec{ID: eng.ID(), Replicas: []transport.Replica{{Handler: eng}}, Cost: cfg.Cost}
	}
	leaves := &Cluster{}
	c := &Cluster{leaves: leaves}
	if err := leaves.open(leafSpecs, Settings{}); err != nil {
		c.Close()
		return nil, err
	}

	var relays []transport.SiteSpec
	for off := 0; off < cfg.Leaves; off += cfg.Fanout {
		end := min(off+cfg.Fanout, cfg.Leaves)
		relay, err := core.NewRelay(leaves.clients[off:end], off, cfg.Leaves)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("skalla: %w", err)
		}
		relays = append(relays, transport.SiteSpec{
			ID: fmt.Sprintf("relay%d", off/cfg.Fanout), Replicas: []transport.Replica{{Handler: relay}}, Cost: cfg.Cost,
		})
	}
	if err := c.open(relays, Settings{}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NumLeaves returns the number of leaf sites (0 for flat clusters).
func (c *Cluster) NumLeaves() int {
	if c.leaves == nil {
		return 0
	}
	return c.leaves.NumSites()
}
