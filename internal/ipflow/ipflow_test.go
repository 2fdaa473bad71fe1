package ipflow

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/transport"
	"repro/internal/value"
)

func TestDeterminismAndPartition(t *testing.T) {
	cfg := Config{Flows: 2000, Routers: 4, Seed: 5}
	whole := Generate(cfg)
	again := Generate(cfg)
	for i := range whole.Rows {
		for j := range whole.Rows[i] {
			if !value.Equal(whole.Rows[i][j], again.Rows[i][j]) {
				t.Fatal("generation not deterministic")
			}
		}
	}
	total := 0
	rid, _ := Schema().MustLookup("RouterId")
	for s := 0; s < 4; s++ {
		part, err := GeneratePartition(cfg, s, 4)
		if err != nil {
			t.Fatal(err)
		}
		total += part.Len()
		for _, row := range part.Rows {
			if row[rid].Int() != int64(s) {
				t.Fatalf("site %d holds router %d", s, row[rid].Int())
			}
		}
	}
	if total != whole.Len() {
		t.Errorf("partition union %d != whole %d", total, whole.Len())
	}
	if _, err := GeneratePartition(cfg, 4, 4); err == nil {
		t.Error("bad partition index accepted")
	}
}

func TestASPartitioning(t *testing.T) {
	cfg := Config{Flows: 3000, Routers: 4, ASes: 32, ASPartitioned: true, Seed: 9}
	r := Generate(cfg)
	rid, _ := Schema().MustLookup("RouterId")
	sas, _ := Schema().MustLookup("SourceAS")
	for _, row := range r.Rows {
		if row[rid].Int() != RouterOfAS(row[sas].Int(), 4) {
			t.Fatal("SourceAS not pinned to its router")
		}
	}
}

func TestFlowShape(t *testing.T) {
	cfg := Config{Flows: 5000, Hours: 24, Seed: 2}
	r := Generate(cfg)
	st, _ := Schema().MustLookup("StartTime")
	et, _ := Schema().MustLookup("EndTime")
	hr, _ := Schema().MustLookup("Hour")
	dp, _ := Schema().MustLookup("DestPort")
	nb, _ := Schema().MustLookup("NumBytes")
	np, _ := Schema().MustLookup("NumPackets")
	web := 0
	for _, row := range r.Rows {
		if row[et].Int() <= row[st].Int() {
			t.Fatal("EndTime not after StartTime")
		}
		if row[hr].Int() != row[st].Int()/3600 || row[hr].Int() < 0 || row[hr].Int() >= 24 {
			t.Fatalf("bad hour %d for start %d", row[hr].Int(), row[st].Int())
		}
		if row[nb].Int() < 40*row[np].Int() {
			t.Fatal("bytes below minimum packet size")
		}
		if row[dp].Int() == 80 || row[dp].Int() == 443 {
			web++
		}
	}
	frac := float64(web) / float64(r.Len())
	if frac < 0.4 || frac > 0.8 {
		t.Errorf("web fraction = %.2f, want roughly half", frac)
	}
}

func TestGenParamsRoundTrip(t *testing.T) {
	cfg := Config{Flows: 10, Routers: 2, ASes: 3, Hours: 4, ASPartitioned: true, Seed: 5}
	if back := ConfigFromParams(GenParams(cfg)); back != cfg {
		t.Errorf("round trip %+v != %+v", back, cfg)
	}
	cfg.ASPartitioned = false
	if back := ConfigFromParams(GenParams(cfg)); back != cfg {
		t.Errorf("round trip %+v != %+v", back, cfg)
	}
}

func TestGeneratorAdapter(t *testing.T) {
	spec := &transport.GenSpec{
		Kind: "ipflow", Params: GenParams(Config{Flows: 200, Routers: 2, Seed: 1}),
		Site: 0, NumSites: 2,
	}
	r, err := Generator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Error("empty partition")
	}
}

func TestFillCatalog(t *testing.T) {
	ids := []string{"r0", "r1"}
	cat := catalog.New(ids...)
	if err := FillCatalog(cat, ids, Config{ASPartitioned: true, ASes: 8, Routers: 2}); err != nil {
		t.Fatal(err)
	}
	if !cat.IsPartitionAttr("RouterId") {
		t.Error("RouterId not a partition attribute")
	}
	if !cat.IsPartitionAttr("SourceAS") {
		t.Error("SourceAS not a partition attribute under AS partitioning")
	}
	cat2 := catalog.New(ids...)
	if err := FillCatalog(cat2, ids, Config{Routers: 2}); err != nil {
		t.Fatal(err)
	}
	if cat2.IsPartitionAttr("SourceAS") {
		t.Error("SourceAS wrongly a partition attribute without AS partitioning")
	}
}
