// Command skalla-site runs one Skalla warehouse site: a local data
// warehouse server that stores its partition of the detail relations and
// evaluates GMDJ rounds shipped by a coordinator (see cmd/skalla-coord).
//
// Usage:
//
//	skalla-site -addr 127.0.0.1:7001 -id site0
//
// Data reaches the site in one of three ways: generated locally on
// request by the coordinator (OpGenerate), shipped by the coordinator
// (OpLoad), or preloaded from CSV with -load name=path (the schema is
// inferred from a -schema flag of name:kind pairs, or use tpcr/ipflow).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ipflow"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
)

// The flags; the README tables document each (TestReadmeFlagTables).
var (
	addr           = flag.String("addr", "127.0.0.1:7001", "address to listen on")
	id             = flag.String("id", "site", "site identifier (used in error messages)")
	load           = flag.String("load", "", "preload a relation: kind=name=path, kind is tpcr or ipflow (CSV with header)")
	snapshot       = flag.String("snapshot", "", "snapshot file: restored at startup if present, written on shutdown")
	debugAddr      = flag.String("debug-addr", "", "serve observability over HTTP on this address (/metrics, /events, /trace, /healthz, /readyz); empty disables")
	drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM, stop accepting and wait up to this long for in-flight requests before exiting")
	maxResultRows  = flag.Int("max-result-rows", 0, "reject a request whose result exceeds this many rows with an overload error (0 = unlimited)")
	maxResultBytes = flag.Int64("max-result-bytes", 0, "reject a request whose result frame exceeds this many bytes with an overload error (0 = unlimited)")
)

func main() {
	flag.Parse()

	eng := site.NewEngine(*id)
	eng.SetLimits(site.Limits{MaxResultRows: *maxResultRows, MaxResultBytes: *maxResultBytes})
	site.RegisterGenerator("tpcr", tpcr.Generator)
	site.RegisterGenerator("ipflow", ipflow.Generator)

	var sink *obs.Obs
	if *debugAddr != "" {
		sink = obs.Default
		eng.SetObs(sink)
	}

	if *snapshot != "" {
		if _, err := os.Stat(*snapshot); err == nil {
			if err := eng.Restore(*snapshot); err != nil {
				log.Fatalf("skalla-site: %v", err)
			}
			fmt.Printf("skalla-site: restored relations %v from %s\n", eng.RelationNames(), *snapshot)
		}
	}
	if *load != "" {
		if err := preload(eng, *load); err != nil {
			log.Fatalf("skalla-site: %v", err)
		}
	}

	srv := transport.NewServer(eng)
	srv.Obs = sink
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("skalla-site: %v", err)
	}
	fmt.Printf("skalla-site %s listening on %s\n", *id, bound)

	if sink != nil {
		dbg, err := obs.ServeDebug(*debugAddr, sink)
		if err != nil {
			log.Fatalf("skalla-site: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("skalla-site %s debug endpoints on http://%s (/metrics /events /trace)\n", *id, dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		// Graceful drain: stop accepting, mark not-ready on /readyz, and
		// let in-flight rounds finish within the deadline.
		fmt.Printf("skalla-site: draining (%d in flight, deadline %s)\n", srv.Inflight(), *drainTimeout)
		if err := srv.Drain(*drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "skalla-site: drain: %v\n", err)
		} else {
			fmt.Println("skalla-site: drained")
		}
	} else {
		fmt.Println("skalla-site: shutting down")
		if err := srv.Close(); err != nil {
			log.Fatalf("skalla-site: close: %v", err)
		}
	}
	if *snapshot != "" {
		if err := eng.Snapshot(*snapshot); err != nil {
			log.Fatalf("skalla-site: %v", err)
		}
		fmt.Printf("skalla-site: wrote snapshot %s\n", *snapshot)
	}
}

// preload reads kind=name=path and loads the CSV into the engine.
func preload(eng *site.Engine, spec string) error {
	parts := strings.SplitN(spec, "=", 3)
	if len(parts) != 3 {
		return fmt.Errorf("bad -load %q, want kind=name=path", spec)
	}
	kind, name, path := parts[0], parts[1], parts[2]
	var schema *relation.Schema
	switch kind {
	case "tpcr":
		schema = tpcr.Schema()
	case "ipflow":
		schema = ipflow.Schema()
	default:
		return fmt.Errorf("unknown schema kind %q (want tpcr or ipflow)", kind)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := relation.ReadCSV(f, schema)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	eng.Load(name, rel)
	fmt.Printf("skalla-site: loaded %d rows into %q\n", rel.Len(), name)
	return nil
}
