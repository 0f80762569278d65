// Package mec models a mobile-edge-compute substrate: a small pool of CPU
// capacity co-located with the radio site that hosts one low-latency edge
// application per network slice. It is the fourth orchestration domain —
// added to prove that the orchestrator's generic domain-transaction engine
// is pluggable: the MEC controller (internal/ctrl) implements the same
// transactional surface as the radio, transport and cloud controllers, and
// the core engine installs, resizes, restores and rolls back MEC apps
// without a single MEC-specific branch.
//
// The model mirrors internal/cloud at smaller scale: named hosts with CPU
// capacity, first-fit placement in host-name order (deterministic), atomic
// per-app place/resize/remove, and a fixed per-app processing-latency
// contribution counted against the slice's end-to-end budget.
//
// All methods are safe for concurrent use.
package mec

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/slice"
)

// Errors surfaced to the orchestrator as rejection causes.
var (
	ErrNoCapacity   = errors.New("mec: no edge host fits the app")
	ErrDuplicateApp = errors.New("mec: app already placed")
	ErrUnknownApp   = errors.New("mec: unknown app")
)

// CPUForMbps sizes a slice's edge app: one CPU per 20 Mbps of throughput,
// minimum one — the deterministic dimensioning rule the admission check and
// the overbooking resize share.
func CPUForMbps(mbps float64) float64 {
	if mbps <= 0 {
		return 1
	}
	return math.Max(1, math.Ceil(mbps/20))
}

// App is one placed edge application.
type App struct {
	ID    string   `json:"id"`
	Slice slice.ID `json:"slice"`
	CPU   float64  `json:"cpu"`
	Host  string   `json:"host"`
}

// host is one edge compute node.
type host struct {
	name string
	cap  float64
	used float64
}

// Pool is the edge MEC compute substrate.
type Pool struct {
	mu    sync.RWMutex
	hosts []*host // sorted by name (first-fit order)
	apps  map[string]*App

	// ver counts every state change that can flip a CanFit answer.
	//
	// Kept: it has no reader left but ctrl.MECController.FeasVersion, which
	// bench/bench_test.go asserts; it goes with ctrl.FeasVersioner (ROADMAP
	// item 6d).
	ver atomic.Uint64
}

// Version returns a counter bumped by every capacity-affecting mutation;
// equal versions guarantee equal CanFit answers.
func (p *Pool) Version() uint64 { return p.ver.Load() }

// procDelayMs is the user-plane processing latency each app contributes.
const procDelayMs = 0.2

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{apps: make(map[string]*App)} }

// ProcessingDelayMs is the per-app latency contribution, charged against the
// slice's end-to-end budget by the MEC controller's feasibility check.
func (p *Pool) ProcessingDelayMs() float64 { return procDelayMs }

// AddHost registers an edge compute node.
func (p *Pool) AddHost(name string, cpus float64) error {
	if name == "" || cpus <= 0 {
		return fmt.Errorf("mec: invalid host %q (%.1f CPUs)", name, cpus)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.hosts {
		if h.name == name {
			return fmt.Errorf("mec: duplicate host %q", name)
		}
	}
	p.hosts = append(p.hosts, &host{name: name, cap: cpus})
	sort.Slice(p.hosts, func(i, j int) bool { return p.hosts[i].name < p.hosts[j].name })
	p.ver.Add(1)
	return nil
}

// CanFit reports whether some host could take cpu right now (admission's
// dry run; a concurrent placement may still win the race — the orchestrator
// engine rolls back on reserve failure).
func (p *Pool) CanFit(cpu float64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, h := range p.hosts {
		if h.cap-h.used >= cpu-1e-9 {
			return true
		}
	}
	return false
}

// Place puts an app of cpu CPUs on the first host (name order) that fits.
func (p *Pool) Place(id string, owner slice.ID, cpu float64) (App, error) {
	if cpu <= 0 {
		return App{}, fmt.Errorf("mec: app %q needs positive CPU, got %.2f", id, cpu)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.apps[id]; ok {
		return App{}, fmt.Errorf("%w: %s", ErrDuplicateApp, id)
	}
	for _, h := range p.hosts {
		if h.cap-h.used >= cpu-1e-9 {
			h.used += cpu
			a := &App{ID: id, Slice: owner, CPU: cpu, Host: h.name}
			p.apps[id] = a
			p.ver.Add(1)
			return *a, nil
		}
	}
	return App{}, fmt.Errorf("%w: %.1f CPUs for %s", ErrNoCapacity, cpu, owner)
}

// PlaceAt pins an app of cpu CPUs onto the named host, bypassing first-fit
// selection — the crash-recovery primitive. Replaying a write-ahead log
// must land every app exactly where the original run placed it (an
// unlogged brownout may have steered first-fit differently), otherwise a
// later Resize, which grows in place on the app's host, could diverge.
func (p *Pool) PlaceAt(id string, owner slice.ID, cpu float64, hostName string) (App, error) {
	if cpu <= 0 {
		return App{}, fmt.Errorf("mec: app %q needs positive CPU, got %.2f", id, cpu)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.apps[id]; ok {
		return App{}, fmt.Errorf("%w: %s", ErrDuplicateApp, id)
	}
	for _, h := range p.hosts {
		if h.name != hostName {
			continue
		}
		if h.cap-h.used < cpu-1e-9 {
			return App{}, fmt.Errorf("%w: %.1f CPUs for %s on pinned host %s", ErrNoCapacity, cpu, owner, hostName)
		}
		h.used += cpu
		a := &App{ID: id, Slice: owner, CPU: cpu, Host: h.name}
		p.apps[id] = a
		p.ver.Add(1)
		return *a, nil
	}
	return App{}, fmt.Errorf("mec: unknown host %q", hostName)
}

// Resize changes the app's CPU share in place on its host. Growing fails
// when the host's free capacity does not cover the increase.
func (p *Pool) Resize(id string, cpu float64) error {
	if cpu <= 0 {
		return fmt.Errorf("mec: resize of %q to %.2f CPUs must be positive", id, cpu)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.apps[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownApp, id)
	}
	for _, h := range p.hosts {
		if h.name != a.Host {
			continue
		}
		if delta := cpu - a.CPU; h.cap-h.used < delta-1e-9 {
			return fmt.Errorf("%w: grow %s by %.1f CPUs, free %.1f on %s", ErrNoCapacity, id, delta, h.cap-h.used, h.name)
		}
		h.used += cpu - a.CPU
		a.CPU = cpu
		p.ver.Add(1)
		return nil
	}
	return fmt.Errorf("%w: host %q vanished", ErrUnknownApp, a.Host)
}

// Remove frees the app. Unknown IDs are a no-op so teardown is idempotent.
func (p *Pool) Remove(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.apps[id]
	if !ok {
		return
	}
	delete(p.apps, id)
	p.ver.Add(1)
	for _, h := range p.hosts {
		if h.name == a.Host {
			h.used -= a.CPU
			if h.used < 0 {
				h.used = 0
			}
			return
		}
	}
}

// SetHostCapacity rescales the named host's CPU capacity — the chaos model
// of a MEC-host brownout. Shrinks are clamped at the host's current usage
// (only spare capacity can be lost; placed apps are never stranded), so the
// pool's conservation invariants hold throughout. It returns the capacity
// actually applied.
func (p *Pool) SetHostCapacity(name string, cpus float64) (float64, error) {
	if cpus <= 0 {
		return 0, fmt.Errorf("mec: host capacity %.2f must be positive", cpus)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.hosts {
		if h.name != name {
			continue
		}
		if cpus < h.used {
			cpus = h.used
		}
		h.cap = cpus
		p.ver.Add(1)
		return cpus, nil
	}
	return 0, fmt.Errorf("mec: unknown host %q", name)
}

// HostNames returns the pool's host names in first-fit (sorted) order.
func (p *Pool) HostNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.hosts))
	for _, h := range p.hosts {
		out = append(out, h.name)
	}
	return out
}

// AuditConservation cross-checks the pool's CPU books against ground truth
// and returns one message per discrepancy (empty when the books balance):
// each host's used counter must equal the sum over its placed apps, free
// capacity must never go negative, and every app must name a registered
// host.
func (p *Pool) AuditConservation() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []string
	perHost := make(map[string]float64, len(p.hosts))
	for id, a := range p.apps {
		if a.CPU <= 0 {
			out = append(out, fmt.Sprintf("mec app %q: non-positive CPU share %.2f", id, a.CPU))
		}
		perHost[a.Host] += a.CPU
	}
	known := make(map[string]bool, len(p.hosts))
	for _, h := range p.hosts {
		known[h.name] = true
		if d := h.used - perHost[h.name]; d > 1e-6 || d < -1e-6 {
			out = append(out, fmt.Sprintf("mec %s: used counter %.3f != sum over apps %.3f", h.name, h.used, perHost[h.name]))
		}
		if h.cap-h.used < -1e-9 {
			out = append(out, fmt.Sprintf("mec %s: negative slack (%.2f used of %.2f)", h.name, h.used, h.cap))
		}
	}
	for id, a := range p.apps {
		if !known[a.Host] {
			out = append(out, fmt.Sprintf("mec app %q: placed on unknown host %q", id, a.Host))
		}
	}
	sort.Strings(out)
	return out
}

// App returns the placed app by ID.
func (p *Pool) App(id string) (App, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	a, ok := p.apps[id]
	if !ok {
		return App{}, false
	}
	return *a, true
}

// Apps returns every placed app sorted by ID.
func (p *Pool) Apps() []App {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]App, 0, len(p.apps))
	for _, a := range p.apps {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Capacity summarises the pool.
type Capacity struct {
	TotalCPUs float64 `json:"total_cpus"`
	UsedCPUs  float64 `json:"used_cpus"`
	Hosts     int     `json:"hosts"`
	Apps      int     `json:"apps"`
}

// Capacity returns the pool capacity summary.
func (p *Pool) Capacity() Capacity {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := Capacity{Hosts: len(p.hosts), Apps: len(p.apps)}
	for _, h := range p.hosts {
		c.TotalCPUs += h.cap
		c.UsedCPUs += h.used
	}
	return c
}

// Utilization returns used/total CPUs in [0,1].
func (p *Pool) Utilization() float64 {
	c := p.Capacity()
	if c.TotalCPUs <= 0 {
		return 0
	}
	return c.UsedCPUs / c.TotalCPUs
}
