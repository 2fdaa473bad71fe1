package obs

//lint:wrap-errors debug-server failures must stay inspectable with errors.Is/As

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// DebugServer exposes an Obs over HTTP:
//
//	/             index (plain text)
//	/metrics      deterministic JSON snapshot of the registry
//	/events       JSON array of retained events, oldest first (?kind= filters)
//	/trace        Chrome trace_event JSON of the retained spans
//	/profiles     JSON array of the last-N execution profiles
//	/debug/pprof/ the standard Go runtime profiler endpoints
//
// It is the backing of the -debug-addr flag on skalla-site and
// skalla-coord.
type DebugServer struct {
	obs      *Obs
	listener net.Listener
	server   *http.Server
	mux      *http.ServeMux
}

// ServeDebug starts a debug server for o on addr (e.g. "127.0.0.1:0")
// and serves in the background until Close.
func ServeDebug(addr string, o *Obs) (*DebugServer, error) {
	if o == nil {
		return nil, fmt.Errorf("obs: debug server needs a non-nil Obs")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &DebugServer{obs: o, listener: l, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/profiles", s.handleProfiles)
	// The stdlib pprof handlers normally self-register on
	// http.DefaultServeMux; the debug mux is private, so register them
	// explicitly (same paths the pprof tooling expects).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.server = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	//lint:ignore goleak Serve returns when Close closes the listener, ending the goroutine
	go s.server.Serve(l)
	return s, nil
}

// Handle registers an additional handler on the debug mux, so a daemon
// can serve its own endpoints (e.g. the coordinator's /query) alongside
// /metrics and the health probes on one listener. Safe to call while the
// server is running.
func (s *DebugServer) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Addr returns the bound address.
func (s *DebugServer) Addr() string { return s.listener.Addr().String() }

// Close stops the server.
func (s *DebugServer) Close() error {
	if err := s.server.Close(); err != nil {
		return fmt.Errorf("obs: close debug server: %w", err)
	}
	return nil
}

func (s *DebugServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "skalla debug endpoints:\n  /metrics      deterministic JSON metrics snapshot\n  /events       incident log (?kind=%s|%s|%s|...)\n  /trace        Chrome trace_event JSON (load in chrome://tracing or Perfetto)\n  /profiles     last-N execution profiles, oldest first\n  /debug/pprof/ Go runtime profiler (CPU, heap, goroutines)\n  /healthz      liveness (200 while the process serves)\n  /readyz       readiness (503 while draining)\n",
		EventRetry, EventFailover, EventChaos)
}

// handleHealthz is the liveness probe: answering at all means alive.
func (s *DebugServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 while the process accepts new
// work, 503 with the reason once it stops (e.g. graceful drain).
// Coordinators consult it to skip draining sites without burning a call.
func (s *DebugServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.obs.Health == nil {
		fmt.Fprintln(w, "ready")
		return
	}
	ready, reason := s.obs.Health.Ready()
	if !ready {
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Refresh the runtime gauges at scrape time so every snapshot carries
	// a current picture of the Go runtime without a background sampler.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.obs.SetGauge("runtime.goroutines", int64(runtime.NumGoroutine()))
	s.obs.SetGauge("runtime.heap_bytes", int64(ms.HeapAlloc))
	s.obs.SetGauge("runtime.gc_count", int64(ms.NumGC))
	b, err := s.obs.Metrics.EncodeJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

func (s *DebugServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	var events []Event
	if kind := r.URL.Query().Get("kind"); kind != "" {
		events = s.obs.Events.ByKind(kind)
	} else {
		events = s.obs.Events.Events()
	}
	if events == nil {
		events = []Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *DebugServer) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.obs.Profiles.EncodeJSON())
	w.Write([]byte("\n"))
}

func (s *DebugServer) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.obs.Tracer.WriteChromeTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
