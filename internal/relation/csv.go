package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/value"
)

// WriteCSV writes the relation with a header row. Values render with
// value.V.String; NULL is written as the empty field.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	rec := make([]string, r.Schema.Len())
	for _, row := range r.Rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads rows into a relation over the given schema. The input must
// start with a header row matching the schema's column names in order.
// Fields are parsed according to the schema's column kinds; empty fields
// become NULL.
func ReadCSV(r io.Reader, s *Schema) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	if len(head) != s.Len() {
		return nil, fmt.Errorf("relation: csv header has %d fields, schema has %d", len(head), s.Len())
	}
	for i, h := range head {
		if !sameName(s.Cols[i].Name, h) {
			return nil, fmt.Errorf("relation: csv header field %d is %q, want %q", i, h, s.Cols[i].Name)
		}
	}
	out := New(s)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv: %w", err)
		}
		line++
		row := make(Row, s.Len())
		for i, f := range rec {
			v, err := parseField(f, s.Cols[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d column %q: %w", line, s.Cols[i].Name, err)
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
	}
}

func parseField(f string, k value.Kind) (value.V, error) {
	if f == "" {
		return value.Null, nil
	}
	switch k {
	case value.KindInt:
		i, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("parse int %q: %w", f, err)
		}
		return value.NewInt(i), nil
	case value.KindFloat:
		fl, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return value.Null, fmt.Errorf("parse float %q: %w", f, err)
		}
		return value.NewFloat(fl), nil
	case value.KindBool:
		b, err := strconv.ParseBool(f)
		if err != nil {
			return value.Null, fmt.Errorf("parse bool %q: %w", f, err)
		}
		return value.NewBool(b), nil
	case value.KindString:
		return value.NewString(f), nil
	default:
		return value.Null, fmt.Errorf("cannot parse into kind %s", k)
	}
}
