package relation

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/value"
)

func TestCSVRoundTrip(t *testing.T) {
	r := mkRel(t)
	r.Rows[1][2] = value.Null // exercise NULL round trip
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip rows = %d, want %d", back.Len(), r.Len())
	}
	for i := range r.Rows {
		for j := range r.Rows[i] {
			if !value.Equal(r.Rows[i][j], back.Rows[i][j]) &&
				!(r.Rows[i][j].IsNull() && back.Rows[i][j].IsNull()) {
				t.Errorf("row %d col %d: %v != %v", i, j, r.Rows[i][j], back.Rows[i][j])
			}
		}
	}
}

func TestReadCSVHeaderMismatch(t *testing.T) {
	s := testSchema(t)
	in := "Wrong,DestAS,NumBytes,Router\n1,2,3,x\n"
	if _, err := ReadCSV(strings.NewReader(in), s); err == nil {
		t.Error("mismatched header accepted")
	}
	in = "SourceAS,DestAS\n1,2\n"
	if _, err := ReadCSV(strings.NewReader(in), s); err == nil {
		t.Error("short header accepted")
	}
}

func TestReadCSVBadField(t *testing.T) {
	s := testSchema(t)
	in := "SourceAS,DestAS,NumBytes,Router\nnotanint,2,3,x\n"
	_, err := ReadCSV(strings.NewReader(in), s)
	if err == nil || !strings.Contains(err.Error(), "SourceAS") {
		t.Errorf("bad int field: err = %v, should name column", err)
	}
}

func TestReadCSVBoolAndNull(t *testing.T) {
	s := MustSchema(Column{"flag", value.KindBool}, Column{"n", value.KindInt})
	in := "flag,n\ntrue,\nfalse,7\n"
	r, err := ReadCSV(strings.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rows[0][0].Bool() || !r.Rows[0][1].IsNull() {
		t.Errorf("row 0 = %v", r.Rows[0])
	}
	if r.Rows[1][0].Bool() || r.Rows[1][1].Int() != 7 {
		t.Errorf("row 1 = %v", r.Rows[1])
	}
}
