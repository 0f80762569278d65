// Package traffic synthesises the workloads the demo's testbed observed from
// real UEs: per-slice demand processes with the diurnal shape exploited by
// the forecasting paper [4], plus the arrival process of slice requests the
// admission engine faces.
//
// The paper's intro names the verticals (automotive, e-health); Profiles
// gives each a demand shape and SLA template so experiments stress the
// orchestrator with the heterogeneous mix Section 1 describes.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/slice"
)

// Demand is a stochastic demand process sampled once per monitoring epoch.
// Implementations must be deterministic given the *rand.Rand they were
// constructed with.
type Demand interface {
	// Sample returns the offered load (Mbps) at time t. Implementations
	// must return a finite, non-negative rate no matter how hostile their
	// configured parameters are (NaN rates, negative swings, infinite
	// jitter) — the orchestrator feeds samples straight into forecasters
	// and the capacity ledger, where one NaN poisons everything.
	Sample(t time.Time) float64
	// Mean returns the long-run average demand (Mbps), used by capacity
	// planning in experiments.
	Mean() float64
	// Name identifies the generator in experiment output.
	Name() string
}

// Constant is a fixed-rate demand (plus optional jitter) — e.g. an mMTC
// aggregation stream.
type Constant struct {
	Rate   float64
	Jitter float64 // stddev of Gaussian noise, Mbps
	rng    *rand.Rand
}

// NewConstant returns a constant-rate demand with Gaussian jitter.
func NewConstant(rate, jitter float64, rng *rand.Rand) *Constant {
	return &Constant{Rate: rate, Jitter: jitter, rng: rng}
}

// Sample implements Demand.
func (c *Constant) Sample(time.Time) float64 {
	v := c.Rate
	if c.Jitter > 0 && c.rng != nil {
		v += c.rng.NormFloat64() * c.Jitter
	}
	return clampNonNeg(v)
}

// Mean implements Demand.
func (c *Constant) Mean() float64 { return c.Rate }

// Name implements Demand.
func (c *Constant) Name() string { return fmt.Sprintf("constant(%.1f)", c.Rate) }

// Diurnal is the classic day/night mobile-traffic curve: a raised sinusoid
// with its peak at PeakHour plus Gaussian noise. Demand never goes negative.
type Diurnal struct {
	// BaseMbps is the mean demand level.
	BaseMbps float64
	// SwingMbps is the amplitude: peak = base+swing, trough = base-swing.
	SwingMbps float64
	// PeakHour is the local hour (0..24) of maximum demand.
	PeakHour float64
	// NoiseMbps is the stddev of the additive Gaussian noise.
	NoiseMbps float64
	rng       *rand.Rand
}

// NewDiurnal returns a diurnal demand process.
func NewDiurnal(base, swing, peakHour, noise float64, rng *rand.Rand) *Diurnal {
	return &Diurnal{BaseMbps: base, SwingMbps: swing, PeakHour: peakHour, NoiseMbps: noise, rng: rng}
}

// Sample implements Demand.
func (d *Diurnal) Sample(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	phase := 2 * math.Pi * (hour - d.PeakHour) / 24
	v := d.BaseMbps + d.SwingMbps*math.Cos(phase)
	if d.NoiseMbps > 0 && d.rng != nil {
		v += d.rng.NormFloat64() * d.NoiseMbps
	}
	return clampNonNeg(v)
}

// Mean implements Demand.
func (d *Diurnal) Mean() float64 { return d.BaseMbps }

// Name implements Demand.
func (d *Diurnal) Name() string {
	return fmt.Sprintf("diurnal(base=%.1f,swing=%.1f,peak=%.0fh)", d.BaseMbps, d.SwingMbps, d.PeakHour)
}

// Bursty is a two-state Markov-modulated process (quiet/burst). It models
// the automotive vertical: mostly telemetry with sudden event bursts.
type Bursty struct {
	QuietMbps, BurstMbps float64
	// PBurst is the per-sample probability of transitioning quiet->burst;
	// PCalm of burst->quiet.
	PBurst, PCalm float64
	NoiseMbps     float64
	rng           *rand.Rand
	inBurst       bool
}

// NewBursty returns a Markov-modulated on/off demand process.
func NewBursty(quiet, burst, pBurst, pCalm, noise float64, rng *rand.Rand) *Bursty {
	return &Bursty{QuietMbps: quiet, BurstMbps: burst, PBurst: pBurst, PCalm: pCalm, NoiseMbps: noise, rng: rng}
}

// Sample implements Demand.
func (b *Bursty) Sample(time.Time) float64 {
	if b.rng != nil {
		if b.inBurst {
			if b.rng.Float64() < b.PCalm {
				b.inBurst = false
			}
		} else if b.rng.Float64() < b.PBurst {
			b.inBurst = true
		}
	}
	v := b.QuietMbps
	if b.inBurst {
		v = b.BurstMbps
	}
	if b.NoiseMbps > 0 && b.rng != nil {
		v += b.rng.NormFloat64() * b.NoiseMbps
	}
	return clampNonNeg(v)
}

// Mean implements Demand.
func (b *Bursty) Mean() float64 {
	// Stationary distribution of the 2-state chain.
	if b.PBurst+b.PCalm == 0 {
		return b.QuietMbps
	}
	pb := b.PBurst / (b.PBurst + b.PCalm)
	return b.QuietMbps*(1-pb) + b.BurstMbps*pb
}

// Name implements Demand.
func (b *Bursty) Name() string {
	return fmt.Sprintf("bursty(%.1f/%.1f)", b.QuietMbps, b.BurstMbps)
}

// FlashCrowd layers a one-off demand spike (e.g. a stadium event) on top of
// a base process — the adversarial case for overbooking.
type FlashCrowd struct {
	Base      Demand
	Start     time.Time
	Duration  time.Duration
	ExtraMbps float64
}

// Sample implements Demand.
func (f *FlashCrowd) Sample(t time.Time) float64 {
	v := f.Base.Sample(t)
	if !t.Before(f.Start) && t.Before(f.Start.Add(f.Duration)) {
		v += f.ExtraMbps
	}
	return clampNonNeg(v)
}

// Mean implements Demand.
func (f *FlashCrowd) Mean() float64 { return f.Base.Mean() }

// Name implements Demand.
func (f *FlashCrowd) Name() string { return f.Base.Name() + "+flashcrowd" }

// clampNonNeg sanitizes a demand sample: negative rates clamp to zero, and
// non-finite values (NaN from hostile parameters, ±Inf from overflowed
// arithmetic) collapse to zero outright — a single NaN sample would
// otherwise poison the forecasters, the capacity ledger and every
// telemetry aggregate downstream. Every Demand implementation routes its
// samples through here, which is the contract the traffic fuzz targets pin.
func clampNonNeg(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// Profile is a tenant archetype: an SLA template plus a demand-shape
// factory. The four profiles mirror the service classes in package slice.
type Profile struct {
	// Class is the slice service class this profile requests.
	Class slice.ServiceClass
	// Tenant is the display name used for generated requests.
	Tenant string
	// SLA is the template; Duration/Price may be perturbed per request.
	SLA slice.SLA
	// NewDemand builds the demand process for an admitted slice of this
	// profile, scaled so its long-run mean is meanMbps.
	NewDemand func(meanMbps float64, rng *rand.Rand) Demand
	// MeanDemandFraction is the typical ratio mean-demand / contracted
	// peak. Overbooking gain comes precisely from this being < 1.
	MeanDemandFraction float64
}

// DefaultProfiles returns the four verticals used throughout the
// experiments. Throughputs are sized against the testbed scale (two eNBs,
// ~150 Mbps of radio capacity each at 20 MHz).
func DefaultProfiles() []Profile {
	return []Profile{
		{
			Class:  slice.ClassEMBB,
			Tenant: "mvno-broadband",
			SLA: slice.SLA{
				ThroughputMbps: 60, MaxLatencyMs: 50,
				Duration: 2 * time.Hour, PriceEUR: 120, PenaltyEUR: 1.0,
				Class: slice.ClassEMBB,
			},
			MeanDemandFraction: 0.45,
			NewDemand: func(mean float64, rng *rand.Rand) Demand {
				return NewDiurnal(mean, 0.7*mean, 20, 0.08*mean, rng)
			},
		},
		{
			Class:  slice.ClassAutomotive,
			Tenant: "acme-automotive",
			SLA: slice.SLA{
				ThroughputMbps: 20, MaxLatencyMs: 8,
				Duration: 1 * time.Hour, PriceEUR: 90, PenaltyEUR: 4.0,
				Class: slice.ClassAutomotive, EdgeCompute: true,
			},
			MeanDemandFraction: 0.35,
			NewDemand: func(mean float64, rng *rand.Rand) Demand {
				// Quiet 0.5x mean / burst 3x mean with stationary mean ~= mean.
				return NewBursty(0.5*mean, 3*mean, 0.08, 0.32, 0.05*mean, rng)
			},
		},
		{
			Class:  slice.ClassEHealth,
			Tenant: "medcare-ehealth",
			SLA: slice.SLA{
				ThroughputMbps: 30, MaxLatencyMs: 20,
				Duration: 3 * time.Hour, PriceEUR: 150, PenaltyEUR: 6.0,
				Class: slice.ClassEHealth,
			},
			MeanDemandFraction: 0.5,
			NewDemand: func(mean float64, rng *rand.Rand) Demand {
				return NewDiurnal(mean, 0.5*mean, 11, 0.05*mean, rng)
			},
		},
		{
			Class:  slice.ClassMMTC,
			Tenant: "sensornet-mmtc",
			SLA: slice.SLA{
				ThroughputMbps: 10, MaxLatencyMs: 100,
				Duration: 4 * time.Hour, PriceEUR: 40, PenaltyEUR: 0.5,
				Class: slice.ClassMMTC,
			},
			MeanDemandFraction: 0.6,
			NewDemand: func(mean float64, rng *rand.Rand) Demand {
				return NewConstant(mean, 0.05*mean, rng)
			},
		},
	}
}

// RequestGenerator produces slice requests as a marked Poisson process over
// a set of tenant profiles — the offered load knob of experiment D1.
type RequestGenerator struct {
	Profiles []Profile
	// MeanInterarrival is the mean gap between requests.
	MeanInterarrival time.Duration
	rng              *rand.Rand
	seq              int
}

// NewRequestGenerator returns a generator drawing from profiles with
// exponential interarrivals.
func NewRequestGenerator(profiles []Profile, meanInterarrival time.Duration, rng *rand.Rand) *RequestGenerator {
	if len(profiles) == 0 {
		profiles = DefaultProfiles()
	}
	if meanInterarrival <= 0 {
		meanInterarrival = 5 * time.Minute
	}
	return &RequestGenerator{Profiles: profiles, MeanInterarrival: meanInterarrival, rng: rng}
}

// NextInterarrival draws the gap to the next request. The draw saturates at
// MaxInt64 nanoseconds: an exponential tail sample times a large mean
// overflows time.Duration and would wrap negative, re-arming the arrival
// timer in the past forever.
func (g *RequestGenerator) NextInterarrival() time.Duration {
	if g.rng == nil {
		return g.MeanInterarrival
	}
	d := g.rng.ExpFloat64() * float64(g.MeanInterarrival)
	if d < 0 || d >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(d)
}

// Generated pairs a request with the demand process the slice will offer if
// admitted.
type Generated struct {
	Request slice.Request
	Demand  Demand
	Profile Profile
}

// Next synthesises the next request arriving at time at. Prices and
// durations are perturbed ±25% so the admission knapsack faces
// heterogeneous value densities.
func (g *RequestGenerator) Next(at time.Time) Generated {
	g.seq++
	p := g.Profiles[0]
	perturb := func(v float64) float64 { return v }
	if g.rng != nil {
		p = g.Profiles[g.rng.Intn(len(g.Profiles))]
		perturb = func(v float64) float64 { return v * (0.75 + 0.5*g.rng.Float64()) }
	}
	sla := p.SLA
	sla.PriceEUR = perturb(sla.PriceEUR)
	sla.Duration = time.Duration(perturb(float64(sla.Duration)))
	req := slice.Request{
		Tenant:  fmt.Sprintf("%s-%d", p.Tenant, g.seq),
		SLA:     sla,
		Arrival: at,
	}
	mean := sla.ThroughputMbps * p.MeanDemandFraction
	return Generated{Request: req, Demand: p.NewDemand(mean, g.rng), Profile: p}
}
