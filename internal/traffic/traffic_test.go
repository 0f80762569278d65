package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/slice"
)

var t0 = time.Date(2018, 8, 20, 0, 0, 0, 0, time.UTC)

func TestConstantSample(t *testing.T) {
	c := NewConstant(25, 0, nil)
	for i := 0; i < 5; i++ {
		if got := c.Sample(t0); got != 25 {
			t.Fatalf("sample %v", got)
		}
	}
	if c.Mean() != 25 {
		t.Fatal("mean")
	}
}

func TestConstantJitterNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConstant(0.5, 5, rng)
	for i := 0; i < 1000; i++ {
		if c.Sample(t0) < 0 {
			t.Fatal("negative demand")
		}
	}
}

func TestDiurnalPeaksAtPeakHour(t *testing.T) {
	d := NewDiurnal(100, 40, 20, 0, nil)
	peak := d.Sample(time.Date(2018, 8, 20, 20, 0, 0, 0, time.UTC))
	trough := d.Sample(time.Date(2018, 8, 20, 8, 0, 0, 0, time.UTC))
	if math.Abs(peak-140) > 1e-9 {
		t.Fatalf("peak %v, want 140", peak)
	}
	if math.Abs(trough-60) > 1e-9 {
		t.Fatalf("trough %v, want 60", trough)
	}
}

func TestDiurnalMeanOverDay(t *testing.T) {
	d := NewDiurnal(80, 30, 14, 0, nil)
	sum := 0.0
	n := 0
	for h := 0; h < 24; h++ {
		for m := 0; m < 60; m += 5 {
			sum += d.Sample(time.Date(2018, 8, 20, h, m, 0, 0, time.UTC))
			n++
		}
	}
	if avg := sum / float64(n); math.Abs(avg-80) > 1 {
		t.Fatalf("daily average %v, want ~80", avg)
	}
}

func TestBurstyStationaryMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBursty(10, 100, 0.1, 0.3, 0, rng)
	wantMean := 10*0.75 + 100*0.25
	if math.Abs(b.Mean()-wantMean) > 1e-9 {
		t.Fatalf("analytic mean %v, want %v", b.Mean(), wantMean)
	}
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += b.Sample(t0)
	}
	if emp := sum / n; math.Abs(emp-wantMean) > 2 {
		t.Fatalf("empirical mean %v, want ~%v", emp, wantMean)
	}
}

func TestBurstyStatesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBursty(5, 50, 0.2, 0.2, 0, rng)
	for i := 0; i < 1000; i++ {
		v := b.Sample(t0)
		if v != 5 && v != 50 {
			t.Fatalf("bursty emitted %v", v)
		}
	}
}

func TestFlashCrowdWindow(t *testing.T) {
	base := NewConstant(10, 0, nil)
	f := &FlashCrowd{Base: base, Start: t0.Add(time.Hour), Duration: 30 * time.Minute, ExtraMbps: 90}
	if got := f.Sample(t0); got != 10 {
		t.Fatalf("before crowd %v", got)
	}
	if got := f.Sample(t0.Add(time.Hour)); got != 100 {
		t.Fatalf("at crowd start %v", got)
	}
	if got := f.Sample(t0.Add(89 * time.Minute)); got != 100 {
		t.Fatalf("during crowd %v", got)
	}
	if got := f.Sample(t0.Add(91 * time.Minute)); got != 10 {
		t.Fatalf("after crowd %v", got)
	}
	if f.Mean() != 10 {
		t.Fatal("flash crowd mean should be base mean")
	}
}

func TestDefaultProfilesCoverAllClasses(t *testing.T) {
	ps := DefaultProfiles()
	seen := map[slice.ServiceClass]bool{}
	for _, p := range ps {
		seen[p.Class] = true
		if err := p.SLA.Validate(); err != nil {
			t.Fatalf("profile %s SLA invalid: %v", p.Tenant, err)
		}
		if p.MeanDemandFraction <= 0 || p.MeanDemandFraction >= 1 {
			t.Fatalf("profile %s mean fraction %v outside (0,1) — no multiplexing gain possible", p.Tenant, p.MeanDemandFraction)
		}
		d := p.NewDemand(p.SLA.ThroughputMbps*p.MeanDemandFraction, rand.New(rand.NewSource(1)))
		if d == nil {
			t.Fatalf("profile %s demand nil", p.Tenant)
		}
	}
	for _, c := range []slice.ServiceClass{slice.ClassEMBB, slice.ClassAutomotive, slice.ClassEHealth, slice.ClassMMTC} {
		if !seen[c] {
			t.Fatalf("class %v missing from default profiles", c)
		}
	}
}

func TestProfileDemandMeanApproximatesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range DefaultProfiles() {
		target := p.SLA.ThroughputMbps * p.MeanDemandFraction
		d := p.NewDemand(target, rng)
		sum := 0.0
		const n = 20000
		at := t0
		for i := 0; i < n; i++ {
			sum += d.Sample(at)
			at = at.Add(time.Minute)
		}
		emp := sum / n
		if math.Abs(emp-target)/target > 0.25 {
			t.Fatalf("profile %s empirical mean %.2f vs target %.2f", p.Tenant, emp, target)
		}
	}
}

func TestRequestGeneratorDeterministic(t *testing.T) {
	gen := func() []string {
		g := NewRequestGenerator(nil, time.Minute, rand.New(rand.NewSource(5)))
		var out []string
		at := t0
		for i := 0; i < 10; i++ {
			at = at.Add(g.NextInterarrival())
			out = append(out, g.Next(at).Request.Tenant)
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic generator: %v vs %v", a[i], b[i])
		}
	}
}

func TestRequestGeneratorValidRequests(t *testing.T) {
	g := NewRequestGenerator(nil, time.Minute, rand.New(rand.NewSource(9)))
	for i := 0; i < 200; i++ {
		gen := g.Next(t0)
		if err := gen.Request.Validate(); err != nil {
			t.Fatalf("generated request invalid: %v", err)
		}
		if gen.Demand == nil {
			t.Fatal("generated demand nil")
		}
	}
}

func TestRequestGeneratorUniqueTenants(t *testing.T) {
	g := NewRequestGenerator(nil, time.Minute, rand.New(rand.NewSource(2)))
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		name := g.Next(t0).Request.Tenant
		if seen[name] {
			t.Fatalf("duplicate tenant %s", name)
		}
		seen[name] = true
	}
}

func TestExponentialInterarrivalMean(t *testing.T) {
	g := NewRequestGenerator(nil, 2*time.Minute, rand.New(rand.NewSource(17)))
	var sum time.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		sum += g.NextInterarrival()
	}
	mean := sum / n
	if math.Abs(float64(mean-2*time.Minute)) > float64(4*time.Second) {
		t.Fatalf("mean interarrival %v, want ~2m", mean)
	}
}

func TestGeneratorDefaultsWithoutRNG(t *testing.T) {
	g := NewRequestGenerator(nil, 0, nil)
	if g.NextInterarrival() != 5*time.Minute {
		t.Fatal("default interarrival")
	}
	gen := g.Next(t0)
	if gen.Request.SLA.ThroughputMbps <= 0 {
		t.Fatal("default request invalid")
	}
}

// Property: every demand process returns non-negative samples at all times.
func TestPropertyNonNegativeDemand(t *testing.T) {
	f := func(seed int64, hourOffsets []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		demands := []Demand{
			NewConstant(1, 3, rng),
			NewDiurnal(10, 15, 20, 5, rng), // swing > base stresses clamping
			NewBursty(0.2, 8, 0.3, 0.3, 2, rng),
		}
		for _, off := range hourOffsets {
			at := t0.Add(time.Duration(off) * time.Minute)
			for _, d := range demands {
				if d.Sample(at) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
