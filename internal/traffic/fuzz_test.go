package traffic

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// FuzzDemandModels hardens every demand generator against hostile
// parameters: whatever rates, swings, probabilities or noise levels the
// fuzzer invents — NaN, ±Inf, negatives, denormals — Sample must return a
// finite, non-negative load and Mean must not panic. The seed corpus pins
// the known nasty corners (NaN rate, negative swing, infinite jitter,
// inverted burst probabilities).
func FuzzDemandModels(f *testing.F) {
	f.Add(10.0, 1.0, 30.0, 15.0, 20.0, 2.0, 5.0, 60.0, 0.1, 0.3, int64(1))
	f.Add(math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(),
		math.NaN(), math.NaN(), math.NaN(), math.NaN(), int64(2))
	f.Add(math.Inf(1), math.Inf(-1), -5.0, math.Inf(1), -3.0, math.Inf(1),
		-1.0, math.Inf(-1), 2.0, -1.0, int64(3))
	f.Add(-10.0, -1.0, 5.0, 50.0, 99.0, -2.0, 0.0, 0.0, 0.0, 0.0, int64(4))
	f.Add(math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64,
		math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64,
		1.0, 1.0, int64(5))

	f.Fuzz(func(t *testing.T, rate, jitter, base, swing, peak, noise,
		quiet, burst, pBurst, pCalm float64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		origin := time.Unix(0, 0).UTC()
		models := []Demand{
			NewConstant(rate, jitter, rng),
			NewDiurnal(base, swing, peak, noise, rng),
			NewBursty(quiet, burst, pBurst, pCalm, noise, rng),
			&FlashCrowd{
				Base:      NewConstant(rate, jitter, rng),
				Start:     origin.Add(30 * time.Minute),
				Duration:  time.Hour,
				ExtraMbps: burst,
			},
		}
		for _, m := range models {
			_ = m.Mean() // must not panic; value is informational
			for i := 0; i < 8; i++ {
				at := origin.Add(time.Duration(i) * 17 * time.Minute)
				v := m.Sample(at)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite sample %v at %v", m.Name(), v, at)
				}
				if v < 0 {
					t.Fatalf("%s: negative sample %v at %v", m.Name(), v, at)
				}
			}
		}
	})
}

// FuzzRequestGenerator hardens the Poisson request generator: arbitrary
// interarrival means and profile perturbations must keep producing
// non-negative interarrival gaps, and generated requests must either
// validate or be rejected by Validate — never crash downstream layers.
func FuzzRequestGenerator(f *testing.F) {
	f.Add(int64(time.Minute), int64(1))
	f.Add(int64(0), int64(2))
	f.Add(int64(-5), int64(3))
	f.Add(int64(math.MaxInt64), int64(4))
	f.Fuzz(func(t *testing.T, meanIA int64, seed int64) {
		g := NewRequestGenerator(nil, time.Duration(meanIA), rand.New(rand.NewSource(seed)))
		at := time.Unix(0, 0)
		for i := 0; i < 16; i++ {
			if d := g.NextInterarrival(); d < 0 {
				t.Fatalf("negative interarrival %v", d)
			}
			gen := g.Next(at)
			if err := gen.Request.Validate(); err != nil {
				t.Fatalf("generated request invalid: %v", err)
			}
			if v := gen.Demand.Sample(at); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("generated demand sample %v", v)
			}
		}
	})
}
