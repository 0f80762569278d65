package scenario

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// This file implements the experiment battery of DESIGN.md §4. Each
// function regenerates one figure/claim of the paper and returns plain row
// structs that cmd/experiments renders.

// InstallStage is one row of the F2 installation timeline.
type InstallStage struct {
	Stage string
	At    time.Duration // offset from submission
}

// InstallTimelineRows reproduces F2: the per-domain installation workflow
// of one admitted slice on the default testbed ("radio resources are
// reserved through the RAN controller, dedicated paths are selected ...,
// OpenEPC instances are deployed ... After few seconds, user devices ...
// are allowed to connect").
func InstallTimelineRows(seed int64) ([]InstallStage, error) {
	r, err := NewRunner(Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	sl, err := r.Orch.Submit(slice.Request{
		Tenant: "demo-tenant",
		SLA: slice.SLA{
			ThroughputMbps: 30, MaxLatencyMs: 20,
			Duration: time.Hour, PriceEUR: 100, PenaltyEUR: 2,
			Class: slice.ClassEHealth,
		},
	}, traffic.NewConstant(15, 0, nil))
	if err != nil {
		return nil, err
	}
	if err := r.Sim.RunFor(30 * time.Second); err != nil {
		return nil, err
	}
	tl, _ := r.Orch.Timeline(sl.ID())
	return []InstallStage{
		{Stage: "request submitted + admission + reservations", At: 0},
		{Stage: "RAN controller: PRBs reserved, PLMN broadcast", At: tl.RadioDone.Sub(tl.Submitted)},
		{Stage: "transport controller: paths up, flows installed", At: tl.PathsDone.Sub(tl.Submitted)},
		{Stage: "Heat: vEPC stack created", At: tl.StackDone.Sub(tl.Submitted)},
		{Stage: "OpenEPC booted: UEs may attach (slice active)", At: tl.Active.Sub(tl.Submitted)},
	}, nil
}

// AdmissionRow is one row of the D1 experiment.
type AdmissionRow struct {
	// MeanInterarrival encodes the offered load (smaller = heavier).
	MeanInterarrival time.Duration
	Offered          int
	Admitted         int
	Rejected         int
	AdmissionRate    float64
	RevenueEUR       float64
	PenaltyEUR       float64
	NetEUR           float64
	ViolationRate    float64
}

// AdmissionSweep reproduces D1: admission rate and revenue vs. offered
// load, with and without overbooking. The overbooked system should admit
// substantially more slices at moderate violation cost (shape from [3]).
func AdmissionSweep(seed int64, interarrivals []time.Duration, overbook bool) ([]AdmissionRow, error) {
	rows := make([]AdmissionRow, 0, len(interarrivals))
	for _, ia := range interarrivals {
		res, err := Run(Options{
			Seed:             seed,
			Duration:         8 * time.Hour,
			MeanInterarrival: ia,
			Orchestrator: core.Config{
				Overbook:  overbook,
				Risk:      0.95,
				PLMNLimit: 64, // lift the SIB1 limit so radio capacity binds
			},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AdmissionRow{
			MeanInterarrival: ia,
			Offered:          res.Offered,
			Admitted:         res.Gain.Admitted,
			Rejected:         res.Gain.Rejected,
			AdmissionRate:    res.AdmissionRate,
			RevenueEUR:       res.Gain.RevenueTotalEUR,
			PenaltyEUR:       res.Gain.PenaltyTotalEUR,
			NetEUR:           res.NetRevenueEUR,
			ViolationRate:    res.ViolationRate,
		})
	}
	return rows, nil
}

// GainPoint is one sample of the D2 dashboard series.
type GainPoint struct {
	At               time.Duration
	MultiplexingGain float64
	OverbookingRatio float64
	PenaltiesEUR     float64
	ActiveSlices     float64
}

// GainSeries reproduces D2: the dashboard's gains-vs-penalties panel over a
// run with multiple slices, sampled every sampleEvery of simulated time.
func GainSeries(seed int64, duration, sampleEvery time.Duration) ([]GainPoint, error) {
	r, err := NewRunner(Options{
		Seed:             seed,
		Duration:         duration,
		MeanInterarrival: 20 * time.Minute,
		Orchestrator:     core.Config{Overbook: true, Risk: 0.9, PLMNLimit: 64},
	})
	if err != nil {
		return nil, err
	}
	var points []GainPoint
	start := r.Sim.Now()
	r.Sim.Every(sampleEvery, "sample", func() {
		g := r.Orch.Gain()
		points = append(points, GainPoint{
			At:               r.Sim.Now().Sub(start),
			MultiplexingGain: g.MultiplexingGain,
			OverbookingRatio: g.OverbookingRatio,
			PenaltiesEUR:     g.PenaltyTotalEUR,
			ActiveSlices:     float64(g.Active),
		})
	})
	r.StartArrivals()
	if err := r.Sim.RunFor(duration); err != nil {
		return nil, err
	}
	return points, nil
}

// ForecastRow is one row of the D3 accuracy table.
type ForecastRow struct {
	Forecaster string
	MAE        float64
	RMSE       float64
	MAPE       float64
}

// ForecastTable reproduces D3: one-step accuracy of the forecaster zoo on
// diurnal mobile traffic (the [4] workload). Holt-Winters should win.
func ForecastTable(seed int64) []ForecastRow {
	const epochsPerDay = 96 // 15-minute epochs
	r, _ := NewRunner(Options{Seed: seed})
	rng := r.Sim.Rand()
	demand := traffic.NewDiurnal(100, 45, 20, 6, rng)
	series := make([]float64, 14*epochsPerDay)
	at := r.Sim.Now()
	for i := range series {
		series[i] = demand.Sample(at)
		at = at.Add(15 * time.Minute)
	}
	results := forecast.Evaluate(series, 3*epochsPerDay,
		forecast.NewHoltWinters(0.3, 0.05, 0.3, epochsPerDay),
		forecast.NewSeasonalNaive(epochsPerDay),
		forecast.NewHolt(0.4, 0.1),
		forecast.NewEWMA(0.3),
		forecast.NewMovingAverage(8),
		forecast.NewNaive(),
	)
	rows := make([]ForecastRow, 0, len(results))
	for _, res := range forecast.RankByRMSE(results) {
		rows = append(rows, ForecastRow{
			Forecaster: res.Name,
			MAE:        res.Accuracy.MAE(),
			RMSE:       res.Accuracy.RMSE(),
			MAPE:       res.Accuracy.MAPE(),
		})
	}
	return rows
}

// RiskRow is one row of the D4 overbooking trade-off sweep.
type RiskRow struct {
	Risk             float64 // provisioning confidence; 1.0 = no overbooking
	Admitted         int
	MultiplexingGain float64
	ViolationRate    float64
	RevenueEUR       float64
	PenaltyEUR       float64
	NetEUR           float64
}

// RiskSweep reproduces D4: "the machine-learning engine ... trades off
// between multiplexing gain and SLA violations". Sweeping the provisioning
// risk maps the whole curve: gain and violations both grow as risk drops;
// net revenue peaks in between.
func RiskSweep(seed int64, risks []float64) ([]RiskRow, error) {
	rows := make([]RiskRow, 0, len(risks))
	for _, risk := range risks {
		res, err := Run(Options{
			Seed:             seed,
			Duration:         12 * time.Hour,
			MeanInterarrival: 10 * time.Minute,
			Orchestrator: core.Config{
				Overbook:  risk < 0.9995,
				Risk:      risk,
				PLMNLimit: 64,
			},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RiskRow{
			Risk:             risk,
			Admitted:         res.Gain.Admitted,
			MultiplexingGain: res.MeanMultiplexingGain,
			ViolationRate:    res.ViolationRate,
			RevenueEUR:       res.Gain.RevenueTotalEUR,
			PenaltyEUR:       res.Gain.PenaltyTotalEUR,
			NetEUR:           res.NetRevenueEUR,
		})
	}
	return rows, nil
}

// UtilizationRow is one row of the D5 per-domain comparison.
type UtilizationRow struct {
	Domain       string
	PeakMeanUtil float64 // without overbooking
	OverbookUtil float64 // with overbooking
}

// DomainUtilization reproduces D5: mean utilization of each domain's
// primary resource with and without overbooking under identical load.
// Overbooking lowers *reserved* radio utilization per admitted slice while
// serving more slices — the statistical multiplexing the demo displays.
func DomainUtilization(seed int64) ([]UtilizationRow, []UtilizationRow, error) {
	run := func(overbook bool) (map[string]float64, Result, error) {
		r, err := NewRunner(Options{
			Seed:             seed,
			Duration:         8 * time.Hour,
			MeanInterarrival: 12 * time.Minute,
			Orchestrator:     core.Config{Overbook: overbook, Risk: 0.9, PLMNLimit: 64},
		})
		if err != nil {
			return nil, Result{}, err
		}
		r.StartArrivals()
		if err := r.Sim.RunFor(8 * time.Hour); err != nil {
			return nil, Result{}, err
		}
		utils := map[string]float64{}
		for _, d := range []string{"ran", "transport", "cloud"} {
			utils[d] = r.Orch.Store().Series(monitor.DomainMetric(d, "utilization")).WindowStats(0).Mean
		}
		return utils, r.Collect(), nil
	}
	peak, _, err := run(false)
	if err != nil {
		return nil, nil, err
	}
	over, _, err := run(true)
	if err != nil {
		return nil, nil, err
	}
	var rows []UtilizationRow
	for _, d := range []string{"ran", "transport", "cloud"} {
		rows = append(rows, UtilizationRow{Domain: d, PeakMeanUtil: peak[d], OverbookUtil: over[d]})
	}
	return rows, nil, nil
}

// PlacementRow is one row of the D6 latency-driven placement experiment.
type PlacementRow struct {
	MaxLatencyMs float64
	DataCenter   string // "" when rejected
	Reason       string
}

// PlacementSplit reproduces the placement half of D6: identical slices with
// shrinking latency budgets move from the core DC to the edge, then become
// unfeasible.
func PlacementSplit(seed int64, latenciesMs []float64) ([]PlacementRow, error) {
	rows := make([]PlacementRow, 0, len(latenciesMs))
	for _, lat := range latenciesMs {
		r, err := NewRunner(Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		sl, err := r.Orch.Submit(slice.Request{
			Tenant: "probe",
			SLA: slice.SLA{
				ThroughputMbps: 20, MaxLatencyMs: lat,
				Duration: time.Hour, PriceEUR: 50, PenaltyEUR: 1,
			},
		}, nil)
		if err != nil {
			return nil, err
		}
		r.Sim.RunFor(20 * time.Second)
		row := PlacementRow{MaxLatencyMs: lat}
		if sl.State() == slice.StateRejected {
			row.Reason = sl.Reason()
		} else {
			row.DataCenter = sl.DataCenter()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RejectionHistogram runs a heavily loaded scenario and returns the
// rejection-reason counts (the other half of D6).
func RejectionHistogram(seed int64) (map[string]int, error) {
	res, err := Run(Options{
		Seed:             seed,
		Duration:         8 * time.Hour,
		MeanInterarrival: 4 * time.Minute, // overload
		Orchestrator:     core.Config{Overbook: true, Risk: 0.9},
	})
	if err != nil {
		return nil, err
	}
	return res.Gain.RejectReasons, nil
}

// LoadedRunner builds a runner with n active slices, epochs already
// flowing — the fixture of the F1 control-cycle walk-through.
func LoadedRunner(seed int64, n int) (*Runner, error) {
	r, err := NewRunner(Options{
		Seed: seed,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.9,
			PLMNLimit: int(math.Max(float64(n)+2, 6)),
		},
		Testbed: scaleTestbedFor(n),
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := r.SubmitNow(); err != nil {
			return nil, err
		}
	}
	r.Orch.Start()
	if err := r.Sim.RunFor(30 * time.Minute); err != nil {
		return nil, err
	}
	return r, nil
}

// scaleTestbedFor grows the radio/cloud capacity so n concurrent slices fit.
func scaleTestbedFor(n int) testbed.Config {
	cfg := testbed.Default()
	if n > 4 {
		cfg.ENBs = 2 * ((n + 3) / 4)
		cfg.CoreHosts = 2 * cfg.ENBs
		cfg.EdgeHosts = cfg.ENBs
	}
	return cfg
}
