package catalog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/expr"
	"repro/internal/value"
)

// JSON persistence for distribution knowledge, so a coordinator's catalog
// survives restarts and can be authored by hand for real deployments
// (which know their partitioning out of band). The format is stable and
// human-editable:
//
//	{
//	  "sites": [
//	    {"id": "site0", "domains": {
//	        "nationkey": {"set": [0, 8, 16, 24]},
//	        "shipdate":  {"min": 0, "max": 2520}
//	    }}
//	  ],
//	  "fds": [{"from": "custkey", "to": "nationkey"}]
//	}

type jsonValue struct {
	Int *int64   `json:"int,omitempty"`
	Num *float64 `json:"num,omitempty"`
	Str *string  `json:"str,omitempty"`
}

func toJSONValue(v value.V) (jsonValue, error) {
	switch v.K {
	case value.KindInt:
		i := v.Int()
		return jsonValue{Int: &i}, nil
	case value.KindFloat:
		f := v.Float()
		return jsonValue{Num: &f}, nil
	case value.KindString:
		s := v.S
		return jsonValue{Str: &s}, nil
	default:
		return jsonValue{}, fmt.Errorf("catalog: cannot persist %s value", v.K)
	}
}

func (jv jsonValue) value() (value.V, error) {
	switch {
	case jv.Int != nil:
		return value.NewInt(*jv.Int), nil
	case jv.Num != nil:
		return value.NewFloat(*jv.Num), nil
	case jv.Str != nil:
		return value.NewString(*jv.Str), nil
	default:
		return value.Null, fmt.Errorf("catalog: empty value in catalog file")
	}
}

// UnmarshalJSON accepts both the object form and bare JSON scalars, so
// hand-written catalogs can say "set": [0, 8, 16].
func (jv *jsonValue) UnmarshalJSON(data []byte) error {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch x := raw.(type) {
	case float64:
		if x == float64(int64(x)) {
			i := int64(x)
			jv.Int = &i
		} else {
			jv.Num = &x
		}
		return nil
	case string:
		jv.Str = &x
		return nil
	case map[string]any:
		type alias jsonValue
		var a alias
		if err := json.Unmarshal(data, &a); err != nil {
			return err
		}
		*jv = jsonValue(a)
		return nil
	default:
		return fmt.Errorf("catalog: cannot parse value %v", raw)
	}
}

// MarshalJSON emits the compact scalar form.
func (jv jsonValue) MarshalJSON() ([]byte, error) {
	switch {
	case jv.Int != nil:
		return json.Marshal(*jv.Int)
	case jv.Num != nil:
		return json.Marshal(*jv.Num)
	case jv.Str != nil:
		return json.Marshal(*jv.Str)
	default:
		return nil, fmt.Errorf("catalog: empty value")
	}
}

type jsonDomain struct {
	Set []jsonValue `json:"set,omitempty"`
	Min *jsonValue  `json:"min,omitempty"`
	Max *jsonValue  `json:"max,omitempty"`
}

type jsonSite struct {
	ID      string                `json:"id"`
	Domains map[string]jsonDomain `json:"domains,omitempty"`
}

type jsonFD struct {
	From string `json:"from"`
	To   string `json:"to"`
}

type jsonCatalog struct {
	Sites []jsonSite `json:"sites"`
	FDs   []jsonFD   `json:"fds,omitempty"`
}

// WriteJSON serializes the catalog.
func (c *Catalog) WriteJSON(w io.Writer) error {
	out := jsonCatalog{}
	for _, s := range c.Sites {
		js := jsonSite{ID: s.ID, Domains: map[string]jsonDomain{}}
		for attr, d := range s.Domains {
			jd := jsonDomain{}
			if d.Set != nil {
				for _, v := range d.Set {
					jv, err := toJSONValue(v)
					if err != nil {
						return fmt.Errorf("catalog: site %s attr %s: %w", s.ID, attr, err)
					}
					jd.Set = append(jd.Set, jv)
				}
				if jd.Set == nil {
					jd.Set = []jsonValue{}
				}
			}
			if d.HasMin {
				jv, err := toJSONValue(d.Min)
				if err != nil {
					return err
				}
				jd.Min = &jv
			}
			if d.HasMax {
				jv, err := toJSONValue(d.Max)
				if err != nil {
					return err
				}
				jd.Max = &jv
			}
			js.Domains[attr] = jd
		}
		out.Sites = append(out.Sites, js)
	}
	for _, fd := range c.FDs {
		out.FDs = append(out.FDs, jsonFD{From: fd.From, To: fd.To})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a catalog.
func ReadJSON(r io.Reader) (*Catalog, error) {
	var in jsonCatalog
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("catalog: parse: %w", err)
	}
	c := &Catalog{}
	for _, js := range in.Sites {
		if js.ID == "" {
			return nil, fmt.Errorf("catalog: site without id")
		}
		si := SiteInfo{ID: js.ID, Domains: map[string]expr.Domain{}}
		for attr, jd := range js.Domains {
			var d expr.Domain
			if jd.Set != nil {
				vals := make([]value.V, len(jd.Set))
				for i, jv := range jd.Set {
					v, err := jv.value()
					if err != nil {
						return nil, fmt.Errorf("catalog: site %s attr %s: %w", js.ID, attr, err)
					}
					vals[i] = v
				}
				d = expr.DomainSet(vals...)
			} else {
				if jd.Min != nil {
					v, err := jd.Min.value()
					if err != nil {
						return nil, err
					}
					d.HasMin, d.Min = true, v
				}
				if jd.Max != nil {
					v, err := jd.Max.value()
					if err != nil {
						return nil, err
					}
					d.HasMax, d.Max = true, v
				}
			}
			si.Domains[attr] = d
		}
		c.Sites = append(c.Sites, si)
	}
	for _, fd := range in.FDs {
		c.AddFD(fd.From, fd.To)
	}
	return c, nil
}

// SaveFile writes the catalog to a JSON file.
func (c *Catalog) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	return c.WriteJSON(f)
}

// LoadFile reads a catalog from a JSON file.
func LoadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}
