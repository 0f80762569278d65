package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"syscall"
	"time"

	overbook "repro"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/restapi"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// liveSizing is the SUT every HTTP workload runs against: a testbed large
// enough that 512 standing 2-Mbps slices fit (the radio grid, not a model
// limit, binds), 16 admission shards, and the default one-minute epoch so no
// control epoch or checkpoint fires inside a measured window.
func liveSizing() (core.Config, testbed.Config) {
	return core.Config{
			Overbook:            true,
			Risk:                0.9,
			AdmissionLoadFactor: 0.5,
			PLMNLimit:           4096,
			HistoryLimit:        256,
			Shards:              16,
		}, testbed.Config{
			ENBs:          4,
			ENBCarriers:   8,
			MaxPLMNs:      4096,
			CoreHosts:     64,
			CoreHostVCPUs: 64,
			EdgeHosts:     16,
			MmWaveMbps:    1 << 20,
			MicroWaveMbps: 1 << 20,
			WiredMbps:     1 << 22,
		}
}

// epochSizing is the simulated SUT of epoch_1k: the configuration of
// epochLoadedSystem in the repository's bench_test.go for n slices.
func epochSizing(n int) (core.Config, testbed.Config) {
	return core.Config{
			Overbook:            true,
			Risk:                0.9,
			AdmissionLoadFactor: 0.5,
			PLMNLimit:           n + 8,
			HistoryLimit:        64,
			Shards:              16,
		}, testbed.Config{
			ENBs:          2,
			ENBCarriers:   n/50 + 2,
			MaxPLMNs:      n + 8,
			CoreHosts:     n/16 + 8,
			CoreHostVCPUs: 64,
			EdgeHosts:     4,
			MmWaveMbps:    1 << 20,
			MicroWaveMbps: 1 << 20,
			WiredMbps:     1 << 22,
		}
}

// sut is one assembled system under test. For the HTTP workloads it serves
// the handler tree of cmd/orchestrator on a loopback TCP listener.
type sut struct {
	orch    *core.Orchestrator
	tb      *testbed.Testbed
	sim     *sim.Simulator     // simulated SUT only
	clock   *sim.RealtimeClock // live SUT only
	handler http.Handler       // the API mux (traced when a tracer is installed)
	base    string             // "http://127.0.0.1:<port>" once serving
	srv     *http.Server
	served  chan error

	closeWAL func() error // durable SUT only
}

// sutSpec selects what to build. A nil tracer builds through the public
// overbook constructors; a tracer has to be installed before the
// orchestrator exists (ctrl.Set.Wrap and core.Config.Persist are read by
// core.New), so the traced SUT repeats their few lines of assembly.
type sutSpec struct {
	cfg     core.Config
	tbCfg   testbed.Config
	seed    int64
	dataDir string // non-empty: durable (file WAL with group commit)
	sim     bool   // simulated clock instead of the wall clock
	tr      *tracer
}

func buildSUT(spec sutSpec) (*sut, error) {
	s := &sut{}
	opts := overbook.Options{Seed: spec.seed, Orchestrator: &spec.cfg, Testbed: spec.tbCfg}
	switch {
	case spec.tr == nil && spec.sim:
		sys, err := overbook.NewSimulated(opts)
		if err != nil {
			return nil, err
		}
		s.orch, s.tb, s.sim = sys.Orchestrator, sys.Testbed, sys.Sim
	case spec.tr == nil:
		var sys *overbook.System
		var err error
		if spec.dataDir != "" {
			sys, err = overbook.NewLiveDurable(opts, spec.dataDir)
		} else {
			sys, err = overbook.NewLive(opts)
		}
		if err != nil {
			return nil, err
		}
		s.orch, s.tb = sys.Orchestrator, sys.Testbed
		s.clock, _ = sys.Clock.(*sim.RealtimeClock)
		s.closeWAL = sys.CloseWAL
	default:
		var clock sim.Scheduler
		var rng *rand.Rand
		if spec.sim {
			s.sim = sim.NewSimulator(spec.seed)
			clock, rng = s.sim, s.sim.Rand()
		} else {
			s.clock = sim.NewRealtimeClock()
			clock, rng = s.clock, rand.New(rand.NewSource(spec.seed))
		}
		tb, err := testbed.New(spec.tbCfg, rng)
		if err != nil {
			return nil, err
		}
		tb.Ctrl.Wrap = spec.tr.wrapDomain
		cfg := spec.cfg
		if spec.dataDir != "" {
			w, err := wal.Create(spec.dataDir, 0)
			if err != nil {
				return nil, err
			}
			cfg.Persist = spec.tr.wrapSink(core.WALSink(w))
			s.closeWAL = func() error { return s.orch.ClosePersist(w.Close) }
		}
		s.orch, s.tb = core.New(cfg, tb, clock, monitor.NewStore(8192)), tb
	}
	if spec.sim {
		return s, nil
	}

	// The handler tree of cmd/orchestrator, minus the dashboard.
	s.orch.Start()
	api := restapi.NewServer(s.orch)
	api.AttachIntent(intent.NewManager(s.orch, sim.NewRealtimeClock(), intent.Config{}))
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", api)
	mux.Handle("/api/v2/", api)
	mux.Handle("/healthz", api)
	s.handler = mux
	if spec.tr != nil {
		s.handler = spec.tr.wrapHandler(mux)
	}
	return s, nil
}

// serve starts net/http on a loopback TCP listener.
func (s *sut) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// close stops the server, the control loop and every pending timer, and
// closes the WAL. It returns once the serving goroutine has exited.
func (s *sut) close() error {
	var errs []error
	if s.srv != nil {
		// Close, not Shutdown: an SSE handler never goes idle on its own.
		errs = append(errs, s.srv.Close())
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	s.orch.Stop()
	if s.clock != nil {
		s.clock.CancelAll()
	}
	if s.closeWAL != nil {
		errs = append(errs, s.closeWAL())
		s.closeWAL = nil
	}
	return errors.Join(errs...)
}

// awaitActive blocks until n slices are active (the vEPC boot timers of a
// standing population have fired) or the context ends.
func (s *sut) awaitActive(ctx context.Context, n int) error {
	for s.orch.ActiveCount() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("only %d of %d standing slices active: %w", s.orch.ActiveCount(), n, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}

// fsType names the filesystem holding path. tmpfs and ramfs make fsync free,
// so a durable workload refuses to measure on them.
func fsType(path string) (name string, volatile bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", false, err
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", true, nil
	case 0x858458f6:
		return "ramfs", true, nil
	case 0xEF53:
		return "ext4", false, nil
	case 0x58465342:
		return "xfs", false, nil
	case 0x9123683E:
		return "btrfs", false, nil
	case 0x794c7630:
		return "overlayfs", false, nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), false, nil
}
