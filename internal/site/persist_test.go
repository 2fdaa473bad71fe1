package site

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/vec"
)

// goldenSnapshot is a format-3 snapshot of site "site0" holding
// goldenRel() loaded as "Orders".
const goldenSnapshot = "testdata/site0-v3.snap"

// goldenRel has a column of every kind, NULLs in each, and repeated, empty
// and prefix-sharing strings.
func goldenRel() *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindInt},
		relation.Column{Name: "Price", Kind: value.KindFloat},
		relation.Column{Name: "Cust", Kind: value.KindString},
		relation.Column{Name: "Open", Kind: value.KindBool},
		relation.Column{Name: "Note", Kind: value.KindNull},
	))
	custs := []string{"alpha", "beta", "", "gamma", "alphabet"}
	for i := 0; i < 12; i++ {
		k, price, cust, open := value.NewInt(int64(i%4-1)), value.NewFloat(float64(i)*1.25-3), value.NewString(custs[i%len(custs)]), value.NewBool(i%3 == 0)
		switch i % 5 {
		case 1:
			k = value.Null
		case 2:
			price = value.Null
		case 3:
			cust = value.Null
		case 4:
			open = value.Null
		}
		r.MustAppend(k, price, cust, open, value.Null)
	}
	return r
}

// TestSnapshotGolden: the snapshot format does not move. The golden
// restores to goldenRel, the restored engine writes it back byte for byte,
// and so does an engine that loaded goldenRel.
func TestSnapshotGolden(t *testing.T) {
	restored := NewEngine("site0")
	if err := restored.Restore(goldenSnapshot); err != nil {
		t.Fatal(err)
	}
	b, err := restored.batch(restored.relations(), "orders")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := vec.ToRelation(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := relation.AppendFrame(nil, rel); !bytes.Equal(got, relation.AppendFrame(nil, goldenRel())) {
		t.Errorf("the golden restored to a relation other than goldenRel")
	}

	loaded := NewEngine("site0")
	loaded.Load("Orders", goldenRel())
	want, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, e := range map[string]*Engine{"restored": restored, "loaded": loaded} {
		path := filepath.Join(dir, name+".snap")
		if err := e.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the %s engine's snapshot differs from the golden:\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestSnapshotSkipsRefused: a relation stored as its refusal has nothing to
// write, so a snapshot holds the others alone.
func TestSnapshotSkipsRefused(t *testing.T) {
	e := loadedEngine(t)
	e.Load("bad", mixedFlow())
	path := t.TempDir() + "/site.snap"
	if err := e.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine("s1")
	if err := fresh.Restore(path); err != nil {
		t.Fatal(err)
	}
	if names := fresh.RelationNames(); !reflect.DeepEqual(names, []string{"flow"}) {
		t.Errorf("restored %v, want [flow]", names)
	}
}

// TestRestoreRefusesIllTyped: a snapshot holding a relation Load would
// refuse is refused whole, naming path, relation, column and row, and the
// engine keeps the relations and answers it had.
func TestRestoreRefusesIllTyped(t *testing.T) {
	path := t.TempDir() + "/ill.snap"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendSnapshot(nil, map[string]*relation.Relation{"good": flowRel(testFlow...), "bad": mixedFlow()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e := loadedEngine(t)
	req := &transport.Request{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS", "DestAS"}}
	before := handleOK(t, e, req)
	want := "site: restore " + path + ": site s1: relation bad: column NumBytes declared INT holds FLOAT at row 2"
	if err := e.Restore(path); err == nil || err.Error() != want {
		t.Fatalf("restore: %v, want %q", err, want)
	}
	if names := e.RelationNames(); !reflect.DeepEqual(names, []string{"flow"}) {
		t.Errorf("after the refused restore the engine holds %v, want [flow]", names)
	}
	if after := handleOK(t, e, req); !reflect.DeepEqual(replyRel(t, after).Rows, replyRel(t, before).Rows) {
		t.Errorf("after the refused restore flow answers %v, before %v", replyRel(t, after).Rows, replyRel(t, before).Rows)
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "good"}); resp.Error() == nil {
		t.Error("the refused snapshot's well-typed relation was stored")
	}
}

// mixedFlow is testFlow with a FLOAT in the INT column NumBytes at row 2.
func mixedFlow() *relation.Relation {
	r := flowRel(testFlow...)
	r.Rows[2][2] = value.NewFloat(50)
	return r
}
