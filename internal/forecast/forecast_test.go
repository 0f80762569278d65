package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNaivePredictsLast(t *testing.T) {
	n := NewNaive()
	if n.Forecast() != 0 {
		t.Fatal("empty naive forecast non-zero")
	}
	n.Observe(5)
	n.Observe(7)
	if n.Forecast() != 7 {
		t.Fatalf("naive = %v", n.Forecast())
	}
	n.Reset()
	if n.Forecast() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(3)
	for _, v := range []float64{3, 6, 9} {
		m.Observe(v)
	}
	if got := m.Forecast(); got != 6 {
		t.Fatalf("ma = %v, want 6", got)
	}
	m.Observe(12) // window now {6,9,12}
	if got := m.Forecast(); got != 9 {
		t.Fatalf("ma after slide = %v, want 9", got)
	}
}

func TestMovingAveragePartialWindow(t *testing.T) {
	m := NewMovingAverage(10)
	m.Observe(4)
	m.Observe(8)
	if got := m.Forecast(); got != 6 {
		t.Fatalf("partial ma = %v, want 6", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 200; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Forecast()-42) > 1e-9 {
		t.Fatalf("ewma on constant = %v", e.Forecast())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v accepted", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	h := NewHolt(0.5, 0.5)
	// y = 10 + 3t: after training, one-step forecast should be near next value.
	for i := 0; i < 100; i++ {
		h.Observe(10 + 3*float64(i))
	}
	want := 10 + 3*100.0
	if got := h.Forecast(); math.Abs(got-want) > 0.5 {
		t.Fatalf("holt forecast %v, want ~%v", got, want)
	}
}

func TestHoltWintersLearnsSeasonality(t *testing.T) {
	const period = 24
	hw := NewHoltWinters(0.3, 0.05, 0.4, period)
	season := func(i int) float64 {
		return 100 + 40*math.Sin(2*math.Pi*float64(i%period)/period)
	}
	// Train 10 full periods.
	for i := 0; i < 10*period; i++ {
		hw.Observe(season(i))
	}
	if !hw.ready {
		t.Fatal("Holt-Winters not initialised after 10 periods")
	}
	// One-step forecasts over the next period should track the seasonal shape.
	var acc Accuracy
	for i := 10 * period; i < 11*period; i++ {
		acc.Record(hw.Forecast(), season(i))
		hw.Observe(season(i))
	}
	if acc.RMSE() > 3 {
		t.Fatalf("seasonal RMSE %.3f too high", acc.RMSE())
	}
}

func TestHoltWintersBeatsNaiveOnSeasonal(t *testing.T) {
	const period = 24
	rng := rand.New(rand.NewSource(42))
	series := make([]float64, 30*period)
	for i := range series {
		series[i] = 100 + 40*math.Sin(2*math.Pi*float64(i%period)/period) + rng.NormFloat64()*3
	}
	res := Evaluate(series, 5*period,
		NewHoltWinters(0.3, 0.05, 0.4, period), NewNaive())
	hw, naive := res[0].Accuracy, res[1].Accuracy
	if hw.RMSE() >= naive.RMSE() {
		t.Fatalf("holt-winters RMSE %.3f not better than naive %.3f", hw.RMSE(), naive.RMSE())
	}
}

func TestHoltWintersPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("period=1 accepted")
		}
	}()
	NewHoltWinters(0.3, 0.1, 0.1, 1)
}

func TestZScoreMonotoneAndAnchored(t *testing.T) {
	if z := ZScore(0.5); z != 0 {
		t.Fatalf("z(0.5)=%v", z)
	}
	if z := ZScore(0.95); math.Abs(z-1.6449) > 1e-4 {
		t.Fatalf("z(0.95)=%v", z)
	}
	prev := -1.0
	for p := 0.5; p <= 0.999; p += 0.01 {
		z := ZScore(p)
		if z < prev {
			t.Fatalf("ZScore not monotone at %v", p)
		}
		prev = z
	}
	// Clamping outside the table.
	if ZScore(0.2) != 0 || ZScore(0.9999) != ZScore(0.999) {
		t.Fatal("ZScore clamp broken")
	}
}

func TestResidualsStdDev(t *testing.T) {
	r := NewResiduals(8)
	if r.StdDev() != 0 {
		t.Fatal("stddev of empty residuals")
	}
	for _, e := range []float64{2, -2, 2, -2} {
		r.Add(e)
	}
	// Sample stddev of {2,-2,2,-2} = sqrt(16/3) ≈ 2.309.
	if got := r.StdDev(); math.Abs(got-2.3094) > 1e-3 {
		t.Fatalf("stddev %v", got)
	}
}

func TestProvisionerPeakRiskReturnsContract(t *testing.T) {
	p := NewProvisioner(NewEWMA(0.3), 1.0, 1)
	for i := 0; i < 50; i++ {
		p.Observe(10)
	}
	if got := p.Provision(100); got != 100 {
		t.Fatalf("peak provisioning = %v, want contract 100", got)
	}
}

func TestProvisionerOverbooksBelowContract(t *testing.T) {
	p := NewProvisioner(NewEWMA(0.3), 0.95, 1)
	for i := 0; i < 100; i++ {
		p.Observe(10)
	}
	got := p.Provision(100)
	if got >= 100 {
		t.Fatalf("overbooked provision %v not below contract", got)
	}
	if got < 10 {
		t.Fatalf("provision %v below steady demand", got)
	}
}

func TestProvisionerRespectsFloorAndContract(t *testing.T) {
	p := NewProvisioner(NewEWMA(0.5), 0.9, 5)
	p.Observe(0.1)
	p.Observe(0.1)
	if got := p.Provision(100); got < 5 {
		t.Fatalf("provision %v below floor", got)
	}
	// Huge demand: clipped at contract.
	for i := 0; i < 20; i++ {
		p.Observe(1e6)
	}
	if got := p.Provision(100); got != 100 {
		t.Fatalf("provision %v exceeds contract", got)
	}
}

func TestProvisionerBeforeDataReturnsContract(t *testing.T) {
	p := NewProvisioner(NewEWMA(0.5), 0.9, 0)
	if got := p.Provision(77); got != 77 {
		t.Fatalf("cold-start provision %v, want contract", got)
	}
}

func TestAccuracyMetrics(t *testing.T) {
	var a Accuracy
	a.Record(10, 8)  // err +2
	a.Record(6, 10)  // err -4
	a.Record(10, 10) // err 0
	if a.n != 3 {
		t.Fatalf("n=%d", a.n)
	}
	if got := a.MAE(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("MAE %v", got)
	}
	if got := a.RMSE(); math.Abs(got-math.Sqrt(20.0/3)) > 1e-9 {
		t.Fatalf("RMSE %v", got)
	}
	if got := a.Bias(); math.Abs(got-(-2.0/3)) > 1e-9 {
		t.Fatalf("bias %v", got)
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("max %v", a.MaxAbs())
	}
	// MAPE: |2/8| + |4/10| + 0 over 3 = 23.33%
	if got := a.MAPE(); math.Abs(got-100*(0.25+0.4)/3) > 1e-9 {
		t.Fatalf("MAPE %v", got)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	var a Accuracy
	a.Record(5, 0)
	if a.MAPE() != 0 {
		t.Fatalf("MAPE with zero actual = %v", a.MAPE())
	}
}

func TestEvaluateRanks(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	// On a pure trend Holt must beat naive; ranking should reflect it.
	res := RankByRMSE(Evaluate(series, 10, NewNaive(), NewHolt(0.5, 0.5)))
	if res[0].Name != "holt(0.50,0.50)" {
		t.Fatalf("ranking = %v, %v", res[0].Name, res[1].Name)
	}
}

// Property: provisioned capacity never exceeds the contract and never drops
// below the floor (when floor <= contract), for any demand sequence and risk.
func TestPropertyProvisionBounds(t *testing.T) {
	f := func(demands []uint16, riskPct uint8) bool {
		risk := 0.5 + float64(riskPct%50)/100.0
		const contract, floor = 500.0, 2.0
		p := NewProvisioner(NewEWMA(0.3), risk, floor)
		for _, d := range demands {
			p.Observe(float64(d % 1000))
			got := p.Provision(contract)
			if got > contract+1e-9 || got < floor-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: EWMA forecast always lies within the min/max of observations.
func TestPropertyEWMAWithinRange(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		e := NewEWMA(0.4)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v)
			e.Observe(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		fc := e.Forecast()
		return fc >= lo-1e-9 && fc <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
