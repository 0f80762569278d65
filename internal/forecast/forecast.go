// Package forecast implements the traffic-forecasting engine the demo's
// orchestrator uses to overbook slice resources (Section 2: "By monitoring
// past slices traffic behaviors [4], our orchestrator forecasts future
// traffic demands so as to schedule slice resources while pursuing the
// overall resource efficiency maximization").
//
// The companion paper [4] (Sciancalepore et al., INFOCOM'17) forecasts
// per-slice mobile traffic, which is strongly diurnal, and adds a safety
// margin so the provisioned capacity covers a chosen demand percentile.
// We provide that exact pipeline: online forecasters (naive, moving average,
// EWMA, Holt linear trend, Holt-Winters additive seasonal), a residual
// tracker that converts forecast error into a Gaussian quantile margin, and
// accuracy metrics for the ablation experiment (D3).
//
// Forecasters and Provisioners are deliberately unsynchronized: each one
// belongs to exactly one slice, and only three callers touch them — the
// control epoch (Observe under the slice's shard lock in its analysis pass,
// then one ProvisionEach over every live slice holding no shard lock), the
// squeeze pass and single-threaded WAL replay. The orchestrator's epochMu
// serializes all three (DESIGN.md §7), so a single forecaster only ever sees
// one goroutine at a time. Do not share one instance across slices or
// goroutines.
package forecast

import (
	"fmt"
	"math"
)

// Forecaster is an online one-step-ahead predictor. Observe feeds a new
// sample; Forecast returns the prediction for the next step. Implementations
// are deliberately cheap: the orchestrator re-forecasts every slice every
// control epoch.
type Forecaster interface {
	// Observe feeds the demand measured during the epoch that just ended.
	Observe(v float64)
	// Forecast predicts demand for the next epoch. Before any observation
	// it returns 0.
	Forecast() float64
	// Name identifies the forecaster in experiment tables.
	Name() string
	// Reset discards all learned state.
	Reset()
}

// Naive predicts the last observed value (persistence forecast). This is the
// baseline every published forecaster must beat.
type Naive struct {
	last float64
	seen bool
}

// NewNaive returns a persistence forecaster.
func NewNaive() *Naive { return &Naive{} }

// Observe implements Forecaster.
func (n *Naive) Observe(v float64) { n.last, n.seen = v, true }

// Forecast implements Forecaster.
func (n *Naive) Forecast() float64 { return n.last }

// Name implements Forecaster.
func (n *Naive) Name() string { return "naive" }

// Reset implements Forecaster.
func (n *Naive) Reset() { *n = Naive{} }

// MovingAverage predicts the mean of the last W observations.
type MovingAverage struct {
	window []float64
	size   int
	idx    int
	full   bool
	sum    float64
}

// NewMovingAverage returns a forecaster over a window of size samples.
func NewMovingAverage(size int) *MovingAverage {
	if size < 1 {
		size = 1
	}
	return &MovingAverage{window: make([]float64, size), size: size}
}

// Observe implements Forecaster.
func (m *MovingAverage) Observe(v float64) {
	m.sum -= m.window[m.idx]
	m.window[m.idx] = v
	m.sum += v
	m.idx++
	if m.idx == m.size {
		m.idx = 0
		m.full = true
	}
}

// Forecast implements Forecaster.
func (m *MovingAverage) Forecast() float64 {
	n := m.size
	if !m.full {
		n = m.idx
	}
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Name implements Forecaster.
func (m *MovingAverage) Name() string { return fmt.Sprintf("ma(%d)", m.size) }

// Reset implements Forecaster.
func (m *MovingAverage) Reset() { *m = *NewMovingAverage(m.size) }

// EWMA is exponentially weighted moving average: level += alpha*(v-level).
type EWMA struct {
	alpha float64
	level float64
	seen  bool
}

// NewEWMA returns an EWMA forecaster with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("forecast: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe implements Forecaster.
func (e *EWMA) Observe(v float64) {
	if !e.seen {
		e.level, e.seen = v, true
		return
	}
	e.level += e.alpha * (v - e.level)
}

// Forecast implements Forecaster.
func (e *EWMA) Forecast() float64 { return e.level }

// Name implements Forecaster.
func (e *EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.alpha) }

// Reset implements Forecaster.
func (e *EWMA) Reset() { e.level, e.seen = 0, false }

// Holt is double exponential smoothing (level + linear trend).
type Holt struct {
	alpha, beta  float64
	level, trend float64
	n            int
	prev         float64
}

// NewHolt returns a Holt linear-trend forecaster.
func NewHolt(alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("forecast: Holt parameters (%v,%v) out of (0,1]", alpha, beta))
	}
	return &Holt{alpha: alpha, beta: beta}
}

// Observe implements Forecaster.
func (h *Holt) Observe(v float64) {
	switch h.n {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.prev
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.alpha*v + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.prev = v
	h.n++
}

// Forecast implements Forecaster.
func (h *Holt) Forecast() float64 {
	if h.n == 0 {
		return 0
	}
	return h.level + h.trend
}

// Name implements Forecaster.
func (h *Holt) Name() string { return fmt.Sprintf("holt(%.2f,%.2f)", h.alpha, h.beta) }

// Reset implements Forecaster.
func (h *Holt) Reset() { *h = *NewHolt(h.alpha, h.beta) }

// HoltWinters is triple exponential smoothing with additive seasonality —
// the workhorse for the diurnal mobile traffic the overbooking engine rides
// on. Season length is expressed in observation epochs (e.g. 24h of 15-min
// epochs = 96).
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int

	level, trend float64
	season       []float64
	warmup       []float64
	ready        bool
	step         int
}

// NewHoltWinters returns an additive-seasonal Holt-Winters forecaster.
// The first two full periods of observations are used to initialise the
// seasonal components; until then it forecasts like a growing average.
func NewHoltWinters(alpha, beta, gamma float64, period int) *HoltWinters {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 || gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("forecast: Holt-Winters parameters (%v,%v,%v) out of (0,1]", alpha, beta, gamma))
	}
	if period < 2 {
		panic(fmt.Sprintf("forecast: Holt-Winters period %d must be >= 2", period))
	}
	return &HoltWinters{alpha: alpha, beta: beta, gamma: gamma, period: period}
}

// Observe implements Forecaster.
func (hw *HoltWinters) Observe(v float64) {
	if !hw.ready {
		hw.warmup = append(hw.warmup, v)
		if len(hw.warmup) >= 2*hw.period {
			hw.initialise()
		}
		return
	}
	i := hw.step % hw.period
	prevLevel := hw.level
	hw.level = hw.alpha*(v-hw.season[i]) + (1-hw.alpha)*(hw.level+hw.trend)
	hw.trend = hw.beta*(hw.level-prevLevel) + (1-hw.beta)*hw.trend
	hw.season[i] = hw.gamma*(v-hw.level) + (1-hw.gamma)*hw.season[i]
	hw.step++
}

// initialise seeds level, trend and seasonal indices from the two warm-up
// periods using the standard decomposition.
func (hw *HoltWinters) initialise() {
	p := hw.period
	mean1, mean2 := 0.0, 0.0
	for i := 0; i < p; i++ {
		mean1 += hw.warmup[i]
		mean2 += hw.warmup[p+i]
	}
	mean1 /= float64(p)
	mean2 /= float64(p)

	hw.level = mean2
	hw.trend = (mean2 - mean1) / float64(p)
	hw.season = make([]float64, p)
	for i := 0; i < p; i++ {
		hw.season[i] = (hw.warmup[i] - mean1 + hw.warmup[p+i] - mean2) / 2
	}
	hw.ready = true
	hw.step = 0
	hw.warmup = nil
}

// Forecast implements Forecaster.
func (hw *HoltWinters) Forecast() float64 {
	if !hw.ready {
		// Growing average during warm-up.
		if len(hw.warmup) == 0 {
			return 0
		}
		sum := 0.0
		for _, v := range hw.warmup {
			sum += v
		}
		return sum / float64(len(hw.warmup))
	}
	i := hw.step % hw.period
	return hw.level + hw.trend + hw.season[i]
}

// Name implements Forecaster.
func (hw *HoltWinters) Name() string {
	return fmt.Sprintf("holt-winters(%.2f,%.2f,%.2f,p=%d)", hw.alpha, hw.beta, hw.gamma, hw.period)
}

// Reset implements Forecaster.
func (hw *HoltWinters) Reset() { *hw = *NewHoltWinters(hw.alpha, hw.beta, hw.gamma, hw.period) }

// zTable holds inverse-normal quantiles for the risk percentiles the
// overbooking sweep uses. Keys are the one-sided confidence levels.
var zTable = []struct {
	p float64
	z float64
}{
	{0.50, 0.0000},
	{0.60, 0.2533},
	{0.70, 0.5244},
	{0.75, 0.6745},
	{0.80, 0.8416},
	{0.85, 1.0364},
	{0.90, 1.2816},
	{0.95, 1.6449},
	{0.975, 1.9600},
	{0.99, 2.3263},
	{0.995, 2.5758},
	{0.999, 3.0902},
}

// ZScore returns the standard-normal quantile for one-sided confidence p in
// [0.5, 0.999], linearly interpolating the table. Out-of-range values clamp.
func ZScore(p float64) float64 {
	if p <= zTable[0].p {
		return zTable[0].z
	}
	last := zTable[len(zTable)-1]
	if p >= last.p {
		return last.z
	}
	for i := 1; i < len(zTable); i++ {
		if p <= zTable[i].p {
			lo, hi := zTable[i-1], zTable[i]
			frac := (p - lo.p) / (hi.p - lo.p)
			return lo.z + frac*(hi.z-lo.z)
		}
	}
	return last.z
}

// Provisioner turns raw forecasts into the capacity actually reserved for a
// slice: forecast + z(risk)·σ(residuals), clipped to [floor, contract].
// risk=1.0 degenerates to peak (SLA) provisioning — the no-overbooking
// baseline; lower risk overbooks harder.
type Provisioner struct {
	F Forecaster
	// Risk is the one-sided confidence that provisioned >= actual demand.
	// 1.0 (or anything >= 0.9995) disables overbooking entirely. It is read
	// only: NewProvisioner takes the margin's z-score from it once.
	Risk float64
	// FloorMbps is the minimum reservation (keeps control traffic alive).
	FloorMbps float64

	z     float64 // ZScore(Risk)
	resid *Residuals
	last  float64 // last forecast, to compute residual on next observe
	seen  bool
}

// NewProvisioner wraps f with a residual-tracking quantile margin.
func NewProvisioner(f Forecaster, risk, floorMbps float64) *Provisioner {
	return &Provisioner{F: f, Risk: risk, FloorMbps: floorMbps, z: ZScore(risk), resid: NewResiduals(64)}
}

// Observe feeds the measured demand and updates the residual distribution.
func (p *Provisioner) Observe(demand float64) {
	if p.seen {
		p.resid.Add(demand - p.last)
	}
	p.F.Observe(demand)
	p.last = p.F.Forecast()
	p.seen = true
}

// Provision returns the Mbps to reserve for the next epoch under contract
// contractMbps. PeakProvisioning (risk >= 0.9995) always returns the
// contract. It is ProvisionEach over one provisioner.
func (p *Provisioner) Provision(contractMbps float64) float64 {
	var out [1]float64
	ProvisionEach([]*Provisioner{p}, []float64{contractMbps}, out[:])
	return out[0]
}

// ProvisionEach sets out[i] to the Mbps ps[i] reserves under contract
// contracts[i] (the three are index-aligned). It computes σ four windows at
// a time: four independent accumulator chains, so the adds of four slices
// overlap instead of each waiting on the one before it, while each window is
// still summed in index order exactly as StdDev sums it. A group of four
// whose margins are not all due, or whose windows hold different sample
// counts, and the tail of the batch take StdDev one window at a time, so
// every result equals Provision's bit for bit (FuzzProvisionEach).
func ProvisionEach(ps []*Provisioner, contracts, out []float64) {
	contracts, out = contracts[:len(ps)], out[:len(ps)]
	i := 0
	for ; i+4 <= len(ps); i += 4 {
		p0, p1, p2, p3 := ps[i], ps[i+1], ps[i+2], ps[i+3]
		n := p0.resid.n()
		if n < 2 || !p0.margined() || !p1.margined() || !p2.margined() || !p3.margined() ||
			p1.resid.n() != n || p2.resid.n() != n || p3.resid.n() != n {
			for k := i; k < i+4; k++ {
				out[k] = ps[k].provision(contracts[k])
			}
			continue
		}
		s0, s1, s2, s3 := stdDev4(n, p0.resid.buf, p1.resid.buf, p2.resid.buf, p3.resid.buf)
		out[i] = p0.reserve(contracts[i], s0)
		out[i+1] = p1.reserve(contracts[i+1], s1)
		out[i+2] = p2.reserve(contracts[i+2], s2)
		out[i+3] = p3.reserve(contracts[i+3], s3)
	}
	for ; i < len(ps); i++ {
		out[i] = ps[i].provision(contracts[i])
	}
}

// margined reports whether the provisioner reserves forecast plus margin
// rather than its contract: it overbooks and has seen demand. It negates the
// peak test rather than inverting it, so a NaN risk takes the margin path.
func (p *Provisioner) margined() bool { return !(p.Risk >= 0.9995 || !p.seen) }

// provision is one provisioner's reservation, its σ taken alone.
func (p *Provisioner) provision(contractMbps float64) float64 {
	if !p.margined() {
		return contractMbps
	}
	return p.reserve(contractMbps, p.resid.StdDev())
}

// reserve is forecast + z·sigma, clipped to [floor, contract].
func (p *Provisioner) reserve(contractMbps, sigma float64) float64 {
	v := p.F.Forecast() + p.z*sigma
	if v < p.FloorMbps {
		v = p.FloorMbps
	}
	if v > contractMbps {
		v = contractMbps
	}
	return v
}

// Observed reports whether any demand sample has been fed yet. Admission
// control uses it to fall back to the a-priori load estimate for slices
// without history.
func (p *Provisioner) Observed() bool { return p.seen }

// Residuals tracks a sliding window of forecast errors and exposes their
// standard deviation (used for the Gaussian provisioning margin).
type Residuals struct {
	buf  []float64
	idx  int
	full bool
}

// NewResiduals returns a tracker over a window of size errors.
func NewResiduals(size int) *Residuals {
	if size < 2 {
		size = 2
	}
	return &Residuals{buf: make([]float64, size)}
}

// Add records one forecast error.
func (r *Residuals) Add(e float64) {
	r.buf[r.idx] = e
	r.idx++
	if r.idx == len(r.buf) {
		r.idx = 0
		r.full = true
	}
}

// n returns the number of valid samples.
func (r *Residuals) n() int {
	if r.full {
		return len(r.buf)
	}
	return r.idx
}

// StdDev returns the sample standard deviation of the recorded errors
// (0 with fewer than 2 samples).
func (r *Residuals) StdDev() float64 {
	n := r.n()
	if n < 2 {
		return 0
	}
	buf := r.buf[:n]
	mean := 0.0
	for _, e := range buf {
		mean += e
	}
	mean /= float64(n)
	ss := 0.0
	for _, e := range buf {
		d := e - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// stdDev4 is StdDev over the first n samples of four windows (n >= 2), as
// four independent accumulator chains. Each window's mean pass and Σd² pass
// add its samples in index order, as StdDev does, so each result is that
// window's StdDev bit for bit.
func stdDev4(n int, a, b, c, d []float64) (float64, float64, float64, float64) {
	a = a[:n]
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	ma, mb, mc, md := 0.0, 0.0, 0.0, 0.0
	for i := range a {
		ma += a[i]
		mb += b[i]
		mc += c[i]
		md += d[i]
	}
	fn := float64(n)
	ma /= fn
	mb /= fn
	mc /= fn
	md /= fn
	sa, sb, sc, sd := 0.0, 0.0, 0.0, 0.0
	for i := range a {
		da := a[i] - ma
		sa += da * da
		db := b[i] - mb
		sb += db * db
		dc := c[i] - mc
		sc += dc * dc
		dd := d[i] - md
		sd += dd * dd
	}
	fd := float64(n - 1)
	return math.Sqrt(sa / fd), math.Sqrt(sb / fd), math.Sqrt(sc / fd), math.Sqrt(sd / fd)
}
