package forecast

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy accumulates one-step-ahead forecast accuracy statistics. Feed it
// (predicted, actual) pairs with Record and read the standard error metrics
// used by the D3 experiment table.
type Accuracy struct {
	n       int
	sumAbs  float64
	sumSq   float64
	sumPct  float64
	nPct    int // samples where actual != 0, for MAPE
	maxErr  float64
	sumBias float64
}

// Record adds one (predicted, actual) pair.
func (a *Accuracy) Record(predicted, actual float64) {
	e := predicted - actual
	a.n++
	a.sumAbs += math.Abs(e)
	a.sumSq += e * e
	a.sumBias += e
	if math.Abs(e) > a.maxErr {
		a.maxErr = math.Abs(e)
	}
	if actual != 0 {
		a.sumPct += math.Abs(e / actual)
		a.nPct++
	}
}

// MAE returns the mean absolute error.
func (a *Accuracy) MAE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumAbs / float64(a.n)
}

// RMSE returns the root mean square error.
func (a *Accuracy) RMSE() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.sumSq / float64(a.n))
}

// MAPE returns the mean absolute percentage error over non-zero actuals,
// in percent.
func (a *Accuracy) MAPE() float64 {
	if a.nPct == 0 {
		return 0
	}
	return 100 * a.sumPct / float64(a.nPct)
}

// Bias returns the mean signed error (positive = over-forecasting).
func (a *Accuracy) Bias() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumBias / float64(a.n)
}

// MaxAbs returns the largest absolute error seen.
func (a *Accuracy) MaxAbs() float64 { return a.maxErr }

// String renders the metrics as one experiment-table row.
func (a *Accuracy) String() string {
	return fmt.Sprintf("n=%d MAE=%.3f RMSE=%.3f MAPE=%.1f%% bias=%+.3f max=%.3f",
		a.n, a.MAE(), a.RMSE(), a.MAPE(), a.Bias(), a.MaxAbs())
}

// Evaluate replays a series through a fresh copy of each forecaster and
// returns per-forecaster accuracy, skipping the first warmup samples from
// scoring (they still train the model). It is the engine behind experiment
// D3.
func Evaluate(series []float64, warmup int, forecasters ...Forecaster) []EvalResult {
	results := make([]EvalResult, 0, len(forecasters))
	for _, f := range forecasters {
		f.Reset()
		var acc Accuracy
		for i, v := range series {
			if i >= warmup {
				acc.Record(f.Forecast(), v)
			}
			f.Observe(v)
		}
		results = append(results, EvalResult{Name: f.Name(), Accuracy: acc})
	}
	return results
}

// EvalResult pairs a forecaster name with its measured accuracy.
type EvalResult struct {
	Name     string
	Accuracy Accuracy
}

// RankByRMSE sorts results ascending by RMSE (best first) in place and
// returns them.
func RankByRMSE(rs []EvalResult) []EvalResult {
	sort.SliceStable(rs, func(i, j int) bool {
		return rs[i].Accuracy.RMSE() < rs[j].Accuracy.RMSE()
	})
	return rs
}
