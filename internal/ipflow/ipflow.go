// Package ipflow generates synthetic IP flow records matching the paper's
// motivating application (Section 2.1): routers dump one tuple per flow
// into the local warehouse adjacent to them, so RouterId is the partition
// attribute. When ASPartitioned is set, every flow of a given SourceAS
// passes through a single router (the assumption of the paper's Examples
// 2 and 5), which makes SourceAS a partition attribute too.
//
// The original system analyzed NetFlow traces that are proprietary; this
// generator substitutes a synthetic workload with the same structure:
// web-heavy port mix, hourly time buckets, and heavy-tailed flow sizes —
// enough to exercise the paper's example analyses ("what fraction of
// hourly flows is Web traffic", correlated aggregates over AS pairs).
package ipflow

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// Config parameterizes the flow generator.
type Config struct {
	// Flows is the total number of flow tuples in the full dataset.
	Flows int
	// Routers is the number of routers (= sites when partitioned).
	Routers int
	// ASes is the number of autonomous systems.
	ASes int
	// Hours is the time span of the trace in hours.
	Hours int
	// ASPartitioned pins each SourceAS to a single router (Examples 2/5).
	ASPartitioned bool
	// Seed makes generation deterministic.
	Seed int64
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Flows == 0 {
		c.Flows = 50000
	}
	if c.Routers == 0 {
		c.Routers = 8
	}
	if c.ASes == 0 {
		c.ASes = 64
	}
	if c.Hours == 0 {
		c.Hours = 24
	}
	return c
}

// Schema returns the Flow fact relation schema of Section 2.1.
func Schema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "RouterId", Kind: value.KindInt},
		relation.Column{Name: "SourceIP", Kind: value.KindString},
		relation.Column{Name: "SourcePort", Kind: value.KindInt},
		relation.Column{Name: "SourceMask", Kind: value.KindInt},
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestIP", Kind: value.KindString},
		relation.Column{Name: "DestPort", Kind: value.KindInt},
		relation.Column{Name: "DestMask", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "StartTime", Kind: value.KindInt},
		relation.Column{Name: "EndTime", Kind: value.KindInt},
		relation.Column{Name: "Hour", Kind: value.KindInt},
		relation.Column{Name: "NumPackets", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
}

// wellKnownPorts is a web-heavy port mix: roughly half the flows are
// HTTP/HTTPS, matching the motivating "fraction of Web traffic" queries.
var wellKnownPorts = []int64{80, 443, 80, 443, 80, 25, 53, 22, 21, 8080}

// RouterOfAS returns the router every flow of a source AS traverses under
// AS partitioning.
func RouterOfAS(as int64, routers int) int64 { return as % int64(routers) }

// Generate produces the full flow trace.
func Generate(cfg Config) *relation.Relation {
	return generate(cfg, -1)
}

// GeneratePartition produces the rows of router siteIdx: the local
// warehouse contents of one collection point. The union over all routers
// is exactly Generate(cfg).
func GeneratePartition(cfg Config, siteIdx, numSites int) (*relation.Relation, error) {
	cfg = cfg.Defaults()
	if numSites != cfg.Routers {
		// The router count defines the physical partitioning.
		cfg.Routers = numSites
	}
	if siteIdx < 0 || siteIdx >= cfg.Routers {
		return nil, fmt.Errorf("ipflow: bad partition %d/%d", siteIdx, cfg.Routers)
	}
	return generate(cfg, int64(siteIdx)), nil
}

func generate(cfg Config, onlyRouter int64) *relation.Relation {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := relation.New(Schema())
	for i := 0; i < cfg.Flows; i++ {
		srcAS := int64(rng.Intn(cfg.ASes))
		dstAS := int64(rng.Intn(cfg.ASes))
		var router int64
		if cfg.ASPartitioned {
			router = RouterOfAS(srcAS, cfg.Routers)
		} else {
			router = int64(rng.Intn(cfg.Routers))
		}
		start := int64(rng.Intn(cfg.Hours * 3600))
		duration := int64(1 + rng.Intn(300))
		packets := int64(1 + rng.Intn(1000))
		// Heavy-tailed bytes: most flows small, a few huge.
		bytes := packets * (40 + int64(rng.Intn(1460)))
		if rng.Intn(50) == 0 {
			bytes *= 100
		}
		row := relation.Row{
			value.NewInt(router),
			value.NewString(fmt.Sprintf("10.%d.%d.%d", srcAS, rng.Intn(256), rng.Intn(256))),
			value.NewInt(int64(1024 + rng.Intn(60000))),
			value.NewInt(24),
			value.NewInt(srcAS),
			value.NewString(fmt.Sprintf("10.%d.%d.%d", dstAS, rng.Intn(256), rng.Intn(256))),
			value.NewInt(wellKnownPorts[rng.Intn(len(wellKnownPorts))]),
			value.NewInt(24),
			value.NewInt(dstAS),
			value.NewInt(start),
			value.NewInt(start + duration),
			value.NewInt(start / 3600),
			value.NewInt(packets),
			value.NewInt(bytes),
		}
		if onlyRouter >= 0 && row[0].Int() != onlyRouter {
			continue
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// GenParams converts a Config into transport.GenSpec parameters.
func GenParams(cfg Config) map[string]int64 {
	cfg = cfg.Defaults()
	p := map[string]int64{
		"flows": int64(cfg.Flows), "routers": int64(cfg.Routers),
		"ases": int64(cfg.ASes), "hours": int64(cfg.Hours), "seed": cfg.Seed,
	}
	if cfg.ASPartitioned {
		p["aspart"] = 1
	}
	return p
}

// ConfigFromParams is the inverse of GenParams.
func ConfigFromParams(p map[string]int64) Config {
	return Config{
		Flows: int(p["flows"]), Routers: int(p["routers"]),
		ASes: int(p["ases"]), Hours: int(p["hours"]),
		ASPartitioned: p["aspart"] == 1, Seed: p["seed"],
	}.Defaults()
}

// Generator adapts the package to the site generator registry.
func Generator(spec *transport.GenSpec) (*relation.Relation, error) {
	return GeneratePartition(ConfigFromParams(spec.Params), spec.Site, spec.NumSites)
}

// FillCatalog records the flow distribution knowledge: per-site RouterId
// domains and, under AS partitioning, per-site SourceAS domains (making
// SourceAS a partition attribute, as in the paper's Example 2).
func FillCatalog(cat *catalog.Catalog, siteIDs []string, cfg Config) error {
	cfg = cfg.Defaults()
	for i, id := range siteIDs {
		if err := cat.SetDomain(id, "RouterId", expr.DomainSet(value.NewInt(int64(i)))); err != nil {
			return err
		}
		if cfg.ASPartitioned {
			var vals []value.V
			for as := int64(i); as < int64(cfg.ASes); as += int64(len(siteIDs)) {
				vals = append(vals, value.NewInt(as))
			}
			if err := cat.SetDomain(id, "SourceAS", expr.DomainSet(vals...)); err != nil {
				return err
			}
		}
	}
	return nil
}
