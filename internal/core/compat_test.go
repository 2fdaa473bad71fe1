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

// goldenX is the X testdata/checkpoint_v2.json was written with: every
// kind, NULLs in a typed column, and the floats whose bits a JSON round
// trip could lose.
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
	return r
}

// TestFormat2CheckpointGolden: testdata/checkpoint_v2.json was written by
// the last commit whose value.V carried separate int and float fields.
// Today's build decodes it to the same values, floats compared by bits,
// and re-encodes it to the same bytes. A −0 is encoded as an omitted
// payload, so it reads back as +0, as it did then; a NaN has no JSON
// form, so a checkpoint holding one fails to encode, as it did then.
func TestFormat2CheckpointGolden(t *testing.T) {
	v2, err := os.ReadFile("testdata/checkpoint_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(v2)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenX()
	want.Rows[0][2] = value.NewFloat(0)
	if !cp.X.Schema.Equal(want.Schema) || cp.X.Len() != want.Len() {
		t.Fatalf("decoded X %s with %d rows, want %s with %d", cp.X.Schema, cp.X.Len(), want.Schema, want.Len())
	}
	for i, row := range want.Rows {
		for j, w := range row {
			g := cp.X.Rows[i][j]
			gi, _ := g.AsInt()
			wi, _ := w.AsInt()
			gf, _ := g.AsFloat()
			wf, _ := w.AsFloat()
			if g.K != w.K || gi != wi || math.Float64bits(gf) != math.Float64bits(wf) || g.S != w.S {
				t.Errorf("row %d col %d = %s %v, want %s %v", i, j, g.K, g, w.K, w)
			}
		}
	}
	again, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, v2) {
		t.Errorf("re-encoding changed the bytes:\n%s\nwant\n%s", again, v2)
	}
	nan := goldenX()
	nan.Rows[1][2] = value.NewFloat(math.NaN())
	if _, err := EncodeCheckpoint(sampleCheckpointWith(nan)); err == nil {
		t.Error("a checkpoint with a NaN encoded")
	}
}

// TestCheckpointRefusesMixedPayload: a checkpoint value whose payload its
// kind does not read has no value.V, so the checkpoint is refused rather
// than read as some other value.
func TestCheckpointRefusesMixedPayload(t *testing.T) {
	for _, v := range []string{`{"k": 2, "i": 1, "f": 1.5}`, `{"k": 3, "i": 4}`, `{"k": 1, "i": 2}`, `{"k": 0, "f": -1}`} {
		b := `{"format": 2, "epoch": "e", "done": 1, "x": {"cols": [{"name": "a", "kind": 2}], "rows": [[` + v + `]]}, "rounds": null}`
		if cp, err := DecodeCheckpoint([]byte(b)); err == nil || !strings.Contains(err.Error(), "payload") {
			t.Errorf("value %s: got %+v, %v; want a payload error", v, cp, err)
		}
	}
}
