package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestProfileLogNilSafe(t *testing.T) {
	var l *ProfileLog
	l.Add(json.RawMessage(`{"a":1}`))
	if l.Profiles() != nil {
		t.Error("nil ProfileLog is not inert")
	}
	var o *Obs
	o.AddProfile(json.RawMessage(`{"a":1}`))
}

func TestProfileLogRing(t *testing.T) {
	l := NewProfileLog(3)
	l.Add(nil) // empty entries are dropped, not retained
	for i := 1; i <= 5; i++ {
		l.Add(json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
	}
	var got []string
	for _, p := range l.Profiles() {
		got = append(got, string(p))
	}
	if len(got) != 3 {
		t.Fatalf("%d profiles retained, want 3", len(got))
	}
	want := []string{`{"n":3}`, `{"n":4}`, `{"n":5}`}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("profile[%d] = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestProfileLogEncodeJSONGolden pins the /profiles payload byte-for-byte:
// one array, oldest first, one entry per line, each entry exactly the
// producer's encoding.
func TestProfileLogEncodeJSONGolden(t *testing.T) {
	l := NewProfileLog(4)
	if got := string(l.EncodeJSON()); got != "[]" {
		t.Errorf("empty ring = %q, want []", got)
	}
	l.Add(json.RawMessage(`{"query_id":"q1","outcome":"ok"}`))
	l.Add(json.RawMessage("{\n  \"query_id\": \"q2\"\n}\n"))
	want := "[\n{\"query_id\":\"q1\",\"outcome\":\"ok\"},\n{\n  \"query_id\": \"q2\"\n}\n]"
	if got := string(l.EncodeJSON()); got != want {
		t.Errorf("EncodeJSON =\n%s\nwant\n%s", got, want)
	}
	var v []map[string]any
	if err := json.Unmarshal(l.EncodeJSON(), &v); err != nil {
		t.Fatalf("EncodeJSON is not valid JSON: %v", err)
	}
	if len(v) != 2 || v[0]["query_id"] != "q1" || v[1]["query_id"] != "q2" {
		t.Errorf("decoded profiles = %+v", v)
	}
}

// TestProfilesEndpoint serves injected profiles over the debug server and
// checks the pprof handlers and runtime gauges ride along.
func TestProfilesEndpoint(t *testing.T) {
	o := New()
	o.AddProfile(json.RawMessage(`{"query_id":"serve-000001","wall_ns":12}`))
	o.AddProfile(json.RawMessage(`{"query_id":"serve-000002","wall_ns":34}`))

	srv, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	want := "[\n{\"query_id\":\"serve-000001\",\"wall_ns\":12},\n{\"query_id\":\"serve-000002\",\"wall_ns\":34}\n]\n"
	if got := string(get("/profiles")); got != want {
		t.Errorf("/profiles = %q, want %q", got, want)
	}

	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index does not list profiles: %q", body)
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Gauges["runtime.goroutines"] <= 0 {
		t.Errorf("runtime.goroutines gauge = %d, want > 0", snap.Gauges["runtime.goroutines"])
	}
	if snap.Gauges["runtime.heap_bytes"] <= 0 {
		t.Errorf("runtime.heap_bytes gauge = %d, want > 0", snap.Gauges["runtime.heap_bytes"])
	}
}
