// Package scenario drives end-to-end simulations of the testbed under the
// orchestrator: slice requests arrive as a Poisson process over tenant
// profiles, admitted slices offer stochastic demand, the control loop
// overbooks, and the run's outcome is condensed into the metrics the demo
// dashboard displays. Every experiment of
// docs/design/04-experiments-and-benchmarks.md is a thin parameterization of
// this runner.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/epc"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Options parameterizes one simulation run.
type Options struct {
	// Seed drives all randomness (arrivals, demand noise, radio channel).
	Seed int64
	// Duration is the simulated time span (default 6h).
	Duration time.Duration
	// MeanInterarrival is the mean gap between slice requests
	// (default 15m). Smaller = higher offered load.
	MeanInterarrival time.Duration
	// Orchestrator configures the system under test.
	Orchestrator core.Config
	// Testbed scales the environment (zero = demo default).
	Testbed testbed.Config
}

// uesPerSlice user devices attach to each slice once its vEPC is serving
// ("user devices associated with the PLMN-id of the new slices are allowed
// to connect").
const uesPerSlice = 3

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 6 * time.Hour
	}
	if o.MeanInterarrival <= 0 {
		o.MeanInterarrival = 15 * time.Minute
	}
	return o
}

// Result condenses one run.
type Result struct {
	// Offered is the number of slice requests generated.
	Offered int
	// Gain is the final dashboard report.
	Gain core.GainReport
	// AdmissionRate is admitted / offered.
	AdmissionRate float64
	// ServedEpochs / ViolationEpochs aggregate per-slice accounting over
	// all slices that ever ran.
	ServedEpochs    int
	ViolationEpochs int
	// ViolationRate is ViolationEpochs / ServedEpochs.
	ViolationRate float64
	// MeanMultiplexingGain / MeanOverbookingRatio average the epoch series.
	MeanMultiplexingGain float64
	MeanOverbookingRatio float64
	// MeanRANUtilization averages the per-epoch scheduled PRB utilization.
	MeanRANUtilization float64
	// MeanAllocatedMbps / MeanContractedMbps average the live totals.
	MeanAllocatedMbps  float64
	MeanContractedMbps float64
	// NetRevenueEUR = revenue - penalties at the end of the run.
	NetRevenueEUR float64
	// AttachedUEs counts user devices that completed the attach procedure.
	AttachedUEs int
	// Slices holds the final snapshots.
	Slices []slice.Snapshot
}

// Runner couples a simulator, a testbed and an orchestrator, letting
// callers interleave scripted actions with the background workload.
type Runner struct {
	Sim   *sim.Simulator
	TB    *testbed.Testbed
	Orch  *core.Orchestrator
	Gen   *traffic.RequestGenerator
	opts  Options
	count int

	attached int
	ueSeq    int
}

// NewRunner builds the environment (without starting arrivals).
func NewRunner(opts Options) (*Runner, error) {
	opts = opts.withDefaults()
	s := sim.NewSimulator(opts.Seed)
	tb, err := testbed.New(opts.Testbed, s.Rand())
	if err != nil {
		return nil, err
	}
	o := core.New(opts.Orchestrator, tb, s, monitor.NewStore(8192))
	gen := traffic.NewRequestGenerator(traffic.DefaultProfiles(), opts.MeanInterarrival, s.Rand())
	return &Runner{Sim: s, TB: tb, Orch: o, Gen: gen, opts: opts}, nil
}

// StartArrivals begins the Poisson request process and the control loop.
func (r *Runner) StartArrivals() {
	r.Orch.Start()
	var schedule func()
	schedule = func() {
		r.Sim.After(r.Gen.NextInterarrival(), "arrival", func() {
			g := r.Gen.Next(r.Sim.Now())
			r.count++
			if sl, err := r.Orch.Submit(g.Request, g.Demand); err == nil && sl.State() != slice.StateRejected {
				r.scheduleUEAttach(sl)
			}
			schedule()
		})
	}
	schedule()
}

// SubmitNow injects one generated request immediately.
func (r *Runner) SubmitNow() (*slice.Slice, error) {
	g := r.Gen.Next(r.Sim.Now())
	r.count++
	sl, err := r.Orch.Submit(g.Request, g.Demand)
	if err == nil && sl.State() != slice.StateRejected {
		r.scheduleUEAttach(sl)
	}
	return sl, err
}

// scheduleUEAttach attaches uesPerSlice user devices once the slice's vEPC
// is serving (the demo's "after few seconds, user devices ... are allowed
// to connect").
func (r *Runner) scheduleUEAttach(sl *slice.Slice) {
	r.Sim.After(30*time.Second, string(sl.ID())+"/ue-attach", func() {
		if sl.State() != slice.StateActive {
			return
		}
		plmn := sl.PLMN()
		for i := 0; i < uesPerSlice; i++ {
			r.ueSeq++
			ue := epc.UE{IMSI: fmt.Sprintf("%s%s%010d", plmn.MCC, plmn.MNC, r.ueSeq), PLMN: plmn}
			if _, err := r.TB.Ctrl.Cloud.EPCs().Attach(ue, r.Sim.Now()); err == nil {
				r.attached++
			}
		}
	})
}

// Collect summarises the run so far.
func (r *Runner) Collect() Result {
	g := r.Orch.Gain()
	res := Result{
		Offered:       r.count,
		Gain:          g,
		NetRevenueEUR: g.NetRevenueEUR,
		AttachedUEs:   r.attached,
		Slices:        r.Orch.List(),
	}
	if res.Offered > 0 {
		res.AdmissionRate = float64(g.Admitted) / float64(res.Offered)
	}
	for _, sn := range res.Slices {
		res.ServedEpochs += sn.Accounting.ServedEpochs
		res.ViolationEpochs += sn.Accounting.ViolationEpochs
	}
	if res.ServedEpochs > 0 {
		res.ViolationRate = float64(res.ViolationEpochs) / float64(res.ServedEpochs)
	}
	store := r.Orch.Store()
	res.MeanMultiplexingGain = meanOf(store, "orchestrator/multiplexing_gain")
	res.MeanOverbookingRatio = meanOf(store, "orchestrator/overbooking_ratio")
	res.MeanRANUtilization = meanOf(store, "orchestrator/ran_epoch_utilization")
	res.MeanContractedMbps = res.MeanOverbookingRatio * g.CapacityMbps
	if res.MeanMultiplexingGain > 0 {
		res.MeanAllocatedMbps = res.MeanContractedMbps / res.MeanMultiplexingGain
	}
	return res
}

func meanOf(store *monitor.Store, name string) float64 {
	return store.Series(name).WindowStats(0).Mean
}

// Run executes a full scenario: Poisson arrivals, the control loop, and
// collection after opts.Duration of simulated time.
func Run(opts Options) (Result, error) {
	r, err := NewRunner(opts)
	if err != nil {
		return Result{}, err
	}
	r.StartArrivals()
	if err := r.Sim.RunFor(opts.withDefaults().Duration); err != nil {
		return Result{}, err
	}
	return r.Collect(), nil
}
