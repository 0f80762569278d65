package forecast

import (
	"math"
	"math/rand"
	"testing"
)

// residualSpecials are the residuals float arithmetic treats differently:
// signed zeros, the smallest and largest denormals, the overflow edge, the
// infinities and NaN.
var residualSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// legacyProvision is Provision as it was computed one slice at a time before
// the batch existed: ZScore taken on every call and σ summed by index over
// the window. ProvisionEach must reproduce it bit for bit.
func legacyProvision(p *Provisioner, contractMbps float64) float64 {
	if p.Risk >= 0.9995 || !p.seen {
		return contractMbps
	}
	sigma := 0.0
	if n := p.resid.n(); n >= 2 {
		mean := 0.0
		for i := 0; i < n; i++ {
			mean += p.resid.buf[i]
		}
		mean /= float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			d := p.resid.buf[i] - mean
			ss += d * d
		}
		sigma = math.Sqrt(ss / float64(n-1))
	}
	v := p.F.Forecast() + ZScore(p.Risk)*sigma
	if v < p.FloorMbps {
		v = p.FloorMbps
	}
	if v > contractMbps {
		v = contractMbps
	}
	return v
}

// fuzzProvisioners builds count provisioners from the fuzzer's bytes. Each
// takes a fill of 0 to 79 residuals (past 64 the window wraps), a risk that
// is usually an overbooking one, and residuals that are random normals
// mixed with residualSpecials. With shared, every provisioner gets the same
// fill, so whole groups of four take the batched path; without it, fills
// differ inside a group.
func fuzzProvisioners(count int, shared bool, seed int64, data []byte) ([]*Provisioner, []float64) {
	rng := rand.New(rand.NewSource(seed))
	next := func() byte {
		if len(data) == 0 {
			return byte(rng.Intn(256))
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sharedFill := int(next()) % 80
	ps := make([]*Provisioner, count)
	contracts := make([]float64, count)
	for i := range ps {
		flags := next()
		risk := 0.5 + float64(flags%50)/100
		switch {
		case flags%17 == 0:
			risk = 1 // peak provisioning: no margin
		case flags%29 == 0:
			risk = math.NaN()
		}
		f := NewNaive()
		f.Observe(rng.NormFloat64() * 10)
		p := NewProvisioner(f, risk, float64(flags%4))
		p.seen = flags%13 != 0
		fill := sharedFill
		if !shared {
			fill = int(next()) % 80
		}
		for j := 0; j < fill; j++ {
			e := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if b := next(); b%8 == 0 {
				e = residualSpecials[int(b/8)%len(residualSpecials)]
			}
			p.resid.Add(e)
		}
		ps[i] = p
		contracts[i] = 1 + rng.Float64()*100
	}
	return ps, contracts
}

// FuzzProvisionEach: for any batch — any size, any window fills, mixed fills
// inside one group of four, residuals with signed zeros, denormals,
// infinities and NaN — every ProvisionEach output equals Provision's and the
// one-slice-at-a-time legacy computation's under math.Float64bits.
func FuzzProvisionEach(f *testing.F) {
	f.Add(uint8(21), true, int64(1), []byte{41})
	f.Add(uint8(4), true, int64(1), []byte{63})
	f.Add(uint8(9), true, int64(2), []byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(13), false, int64(3), []byte{0, 1, 64, 2, 64, 3, 63, 4, 1})
	f.Add(uint8(8), true, int64(4), []byte{70, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80})
	f.Add(uint8(0), false, int64(5), []byte{})
	f.Add(uint8(1), false, int64(6), []byte{2, 3, 1})
	f.Fuzz(func(t *testing.T, count uint8, shared bool, seed int64, data []byte) {
		ps, contracts := fuzzProvisioners(int(count%40), shared, seed, data)
		out := make([]float64, len(ps))
		ProvisionEach(ps, contracts, out)
		for i, p := range ps {
			one, legacy := p.Provision(contracts[i]), legacyProvision(p, contracts[i])
			if math.Float64bits(out[i]) != math.Float64bits(one) || math.Float64bits(out[i]) != math.Float64bits(legacy) {
				t.Fatalf("provisioner %d of %d (fill %d, risk %v): batch %v (%#x), one at a time %v (%#x), legacy %v (%#x)",
					i, len(ps), p.resid.n(), p.Risk, out[i], math.Float64bits(out[i]), one, math.Float64bits(one), legacy, math.Float64bits(legacy))
			}
		}
	})
}

// TestStdDev4MatchesStdDev: the four-window σ on four full windows of
// distinct residuals equals each window's StdDev bit for bit (ProvisionEach's
// fuzz target compares whole outputs; this pins the kernel on its own).
func TestStdDev4MatchesStdDev(t *testing.T) {
	ps, _ := fuzzProvisioners(4, true, 11, []byte{64})
	a, b, c, d := stdDev4(64, ps[0].resid.buf, ps[1].resid.buf, ps[2].resid.buf, ps[3].resid.buf)
	for i, got := range []float64{a, b, c, d} {
		if want := ps[i].resid.StdDev(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d: four-wide σ %v, one-window σ %v", i, got, want)
		}
	}
	if a == 0 || a == b {
		t.Fatalf("degenerate windows: σ %v, %v", a, b)
	}
}
