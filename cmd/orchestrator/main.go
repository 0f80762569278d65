// Command orchestrator runs the end-to-end slicing orchestrator as a live
// daemon: the simulated testbed is managed on the wall clock, the REST API
// is served under /api/v2/ (filtered list, idempotent submit, SSE event
// stream, substrate and telemetry reads), and the demo's control dashboard
// under /.
//
// Usage:
//
//	orchestrator [-addr :8080] [-overbook] [-risk 0.95] [-epoch 10s] [-seed 42] [-data-dir /var/lib/orch]
//
// With -data-dir the daemon keeps a write-ahead log: every admission,
// resize, teardown and control epoch is durable, and a restart rebuilds the
// slice registry by deterministic crash recovery (DESIGN.md §9) before
// serving — GET /api/v2/recovery reports the outcome. On SIGINT/SIGTERM the
// daemon publishes the terminal shutdown event to draining subscribers,
// flushes the log and exits cleanly.
//
// Then open http://localhost:8080/ for the dashboard, or drive it with
// slicectl (see cmd/slicectl).
//
// With -federation N the daemon instead runs the multi-cluster tier
// (DESIGN.md §11): N full member orchestrators behind one hierarchical
// capacity ledger, served under /api/v2/federation/ — cluster registry,
// federated span submission with Idempotency-Key dedup, placement explain,
// the merged member event stream and the aggregated gain report. Drive it
// with slicectl clusters / request -federated / explain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiler endpoints on the -pprof listener's DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	overbook "repro"
	"repro/internal/dashboard"
	"repro/internal/intent"
	"repro/internal/invariant"
	"repro/internal/restapi"
	"repro/internal/sim"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		doOver  = flag.Bool("overbook", true, "enable forecast-based overbooking")
		risk    = flag.Float64("risk", 0.95, "provisioning confidence (1.0 = peak provisioning)")
		epoch   = flag.Duration("epoch", 10*time.Second, "control loop period")
		seed    = flag.Int64("seed", 42, "testbed random seed")
		enbs    = flag.Int("enbs", 2, "number of eNBs in the testbed")
		plmnMax = flag.Int("plmn-limit", 6, "MOCN broadcast list size (max simultaneous slices)")
		mec     = flag.Int("mec-hosts", 0, "enable the edge MEC compute domain with this many hosts (0 = off)")
		audit   = flag.Bool("audit", false, "attach the cross-domain invariant auditor (DESIGN.md §8); violations are logged")
		dataDir = flag.String("data-dir", "", "write-ahead-log directory; enables durability and crash recovery (DESIGN.md §9)")
		fedN    = flag.Int("federation", 0, "run the multi-cluster federation tier with this many member clusters (0 = single-cluster daemon)")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		mutexFrac = flag.Int("pprof-mutex", 0, "mutex contention profile sampling fraction (runtime.SetMutexProfileFraction; 0 = off)")
		blockRate = flag.Int("pprof-block", 0, "blocking profile sampling rate in ns (runtime.SetBlockProfileRate; 0 = off)")
	)
	flag.Parse()

	// Profiling listener first so startup stalls (slow recovery, big WALs)
	// are themselves observable. Served on its own listener: the API address
	// can be exposed while the profiler stays on localhost. The group-commit
	// pipeline is diagnosed with the mutex and block profiles — followers
	// block on the commit ticket, the leader on fsync.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	if *fedN > 0 {
		runFederation(*addr, *fedN, *seed, *epoch, *audit)
		return
	}

	cfg := overbook.OrchestratorConfig{
		Overbook:  *doOver,
		Risk:      *risk,
		Epoch:     *epoch,
		PLMNLimit: *plmnMax,
		Audit:     *audit,
	}
	if *audit {
		cfg.AuditOnViolation = func(v invariant.Violation) {
			log.Printf("INVARIANT VIOLATION: %s", v)
		}
	}
	opts := overbook.Options{
		Seed:         *seed,
		Orchestrator: &cfg,
		// MaxPLMNs follows the allocator limit so raising -plmn-limit
		// actually lifts the per-cell MOCN broadcast bound too.
		Testbed: overbook.TestbedConfig{ENBs: *enbs, MaxPLMNs: *plmnMax, MECHosts: *mec},
	}
	var (
		sys *overbook.System
		err error
	)
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "orchestrator:", err)
			os.Exit(1)
		}
		sys, err = overbook.NewLiveDurable(opts, *dataDir)
	} else {
		sys, err = overbook.NewLive(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orchestrator:", err)
		os.Exit(1)
	}
	if st := sys.Orchestrator.PersistStatus(); st.Recovered && st.Recovery != nil {
		log.Printf("recovered from %s: snapshot seq %d, %d records replayed, %d live slices (torn_tail=%v clean_shutdown=%v)",
			*dataDir, st.Recovery.SnapshotSeq, st.Recovery.Replayed, st.Recovery.LiveSlices,
			st.Recovery.TornTail, st.Recovery.CleanShutdown)
	}
	sys.Orchestrator.Start()

	api := restapi.NewServer(sys.Orchestrator)
	api.AttachIntent(intent.NewManager(sys.Orchestrator, sim.NewRealtimeClock(), intent.Config{}))
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", api) // the one older name still served: GET /api/v1/gain
	mux.Handle("/api/v2/", api)
	mux.Handle("/healthz", api)
	mux.Handle("/", dashboard.New(sys.Orchestrator))

	log.Printf("end-to-end slicing orchestrator listening on %s (overbook=%v risk=%.2f epoch=%v durable=%v)",
		*addr, *doOver, *risk, *epoch, *dataDir != "")
	log.Printf("dashboard: http://localhost%s/  API: http://localhost%s/api/v2/slices  events: http://localhost%s/api/v2/events", *addr, *addr, *addr)

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("%s: shutting down", sig)
	}
	// Ordering matters: publish the terminal EventShutdown and flush it
	// first — in-flight SSE drains observe the clean end of stream while
	// their connections are still up — then drain the HTTP server with the
	// WAL still open, so an in-flight mutation that is acknowledged with a
	// 200 is durably logged rather than lost to an already-closed file, and
	// close the log only once no handler can still be appending.
	ev := sys.Orchestrator.Shutdown()
	log.Printf("shutdown event seq %d published, wal flushed", ev.Seq)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: http: %v", err)
	}
	if err := sys.CloseWAL(); err != nil {
		log.Printf("shutdown: wal close: %v", err)
	}
}
