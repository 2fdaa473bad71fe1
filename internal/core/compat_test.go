package core

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// goldenX is the X testdata/checkpoint_v3.json was written with: every
// kind, NULLs in a typed column, and the floats whose bits a textual
// encoding could lose, −0, NaN and ±Inf among them.
func goldenX() *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "i", Kind: value.KindInt},
		relation.Column{Name: "b", Kind: value.KindBool},
		relation.Column{Name: "f", Kind: value.KindFloat},
		relation.Column{Name: "s", Kind: value.KindString},
		relation.Column{Name: "n", Kind: value.KindInt},
	)
	r := relation.New(s)
	r.Rows = []relation.Row{
		{value.NewInt(-7), value.NewBool(true), value.NewFloat(math.Copysign(0, -1)), value.NewString("a"), value.Null},
		{value.NewInt(math.MaxInt64), value.NewBool(false), value.NewFloat(1e300), value.NewString(""), value.NewInt(3)},
		{value.NewInt(math.MinInt64), value.Null, value.NewFloat(-2.5e-300), value.NewString("ünï \"q\""), value.Null},
		{value.NewInt(0), value.NewBool(true), value.NewFloat(5e-324), value.Null, value.NewInt(-1)},
	}
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r.Rows = append(r.Rows, relation.Row{value.NewInt(int64(i)), value.Null, value.NewFloat(f), value.NewString("x"), value.Null})
	}
	return r
}

// TestFormat3CheckpointGolden: testdata/checkpoint_v3.json holds
// sampleCheckpointWith(goldenX()). It decodes to the same values, floats
// compared by bits (−0, NaN and ±Inf included), and both it and a fresh
// encoding of the same checkpoint are those bytes.
func TestFormat3CheckpointGolden(t *testing.T) {
	v3, err := os.ReadFile("testdata/checkpoint_v3.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(v3)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenX()
	if !cp.X.Schema.Equal(want.Schema) || cp.X.Len() != want.Len() {
		t.Fatalf("decoded X %s with %d rows, want %s with %d", cp.X.Schema, cp.X.Len(), want.Schema, want.Len())
	}
	for i, row := range want.Rows {
		for j, w := range row {
			g := cp.X.Rows[i][j]
			if g.K != w.K || g.Int() != w.Int() || math.Float64bits(g.Float()) != math.Float64bits(w.Float()) || g.S != w.S {
				t.Errorf("row %d col %d = %s %v, want %s %v", i, j, g.K, g, w.K, w)
			}
		}
	}
	for label, cp := range map[string]*Checkpoint{"re-encoding": cp, "encoding": sampleCheckpointWith(want)} {
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, v3) {
			t.Errorf("%s gave other bytes:\n%s\nwant\n%s", label, b, v3)
		}
	}
}

// TestFormat2CheckpointRefused: testdata/checkpoint_v2.json was written by
// the last commit that spelled X value by value, which lost −0 and could
// not hold NaN or ±Inf. It is refused whole, by its format.
func TestFormat2CheckpointRefused(t *testing.T) {
	v2, err := os.ReadFile("testdata/checkpoint_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := DecodeCheckpoint(v2); err == nil || !strings.Contains(err.Error(), "checkpoint format 2, want 3") {
		t.Fatalf("DecodeCheckpoint(format 2) = (%+v, %v), want a format error", cp, err)
	}
}
