package scenario

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestSchedulerSharingAblationReducesViolations(t *testing.T) {
	rows, err := SchedulerSharingAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	noShare, share := rows[0], rows[1]
	if share.ViolationRate > noShare.ViolationRate {
		t.Fatalf("sharing increased violations: %.4f vs %.4f", share.ViolationRate, noShare.ViolationRate)
	}
	if noShare.ViolationRate == 0 {
		t.Fatal("baseline produced no violations — ablation not exercising the mechanism")
	}
}

func TestForecasterAblationAllVariantsRun(t *testing.T) {
	rows, err := ForecasterAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Admitted == 0 {
			t.Fatalf("variant %s admitted nothing", r.Variant)
		}
		if r.MultiplexingGain <= 1.0 {
			t.Fatalf("variant %s gain %.2f", r.Variant, r.MultiplexingGain)
		}
	}
}

func TestHysteresisAblationTradeoff(t *testing.T) {
	rows, err := HysteresisAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	// Reconfiguration churn must fall monotonically as the threshold grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].Reconfigurations > rows[i-1].Reconfigurations {
			t.Fatalf("reconfigurations not decreasing: %+v", rows)
		}
	}
	if rows[0].Reconfigurations == rows[len(rows)-1].Reconfigurations {
		t.Fatal("threshold had no effect on churn")
	}
}

func TestPenaltyAwareAblationProtectsNetRevenue(t *testing.T) {
	rows, err := PenaltyAwareAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// rows: [plain r=0.95, plain r=0.75, aware r=0.95, aware r=0.75]
	plainAggressive, awareAggressive := rows[1], rows[3]
	if awareAggressive.NetEUR <= plainAggressive.NetEUR {
		t.Fatalf("penalty-aware net %.0f not above plain %.0f at aggressive risk",
			awareAggressive.NetEUR, plainAggressive.NetEUR)
	}
}

func TestUEsAttachDuringScenario(t *testing.T) {
	res, err := Run(Options{
		Seed:             4,
		Duration:         3 * time.Hour,
		MeanInterarrival: 20 * time.Minute,
		Orchestrator:     core.Config{Overbook: true, PLMNLimit: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttachedUEs < uesPerSlice {
		t.Fatalf("attached UEs %d", res.AttachedUEs)
	}
	if res.AttachedUEs > res.Gain.Admitted*uesPerSlice {
		t.Fatalf("attached %d exceeds %d per admitted slice (%d)", res.AttachedUEs, uesPerSlice, res.Gain.Admitted)
	}
}

func TestBatchPolicyComparisonOrdering(t *testing.T) {
	rows, err := BatchPolicyComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]BatchRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	fcfs, dens, opt := byName["fcfs"], byName["density"], byName["knapsack-optimal"]
	if !(opt.RevenueEUR >= dens.RevenueEUR && dens.RevenueEUR >= fcfs.RevenueEUR) {
		t.Fatalf("revenue ordering violated: fcfs=%.0f density=%.0f optimal=%.0f",
			fcfs.RevenueEUR, dens.RevenueEUR, opt.RevenueEUR)
	}
	if opt.RevenueEUR == fcfs.RevenueEUR {
		t.Fatal("batch not adversarial enough — optimal equals FCFS")
	}
}

func TestRestorationExperimentShape(t *testing.T) {
	rows, err := RestorationExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	hub, backup := rows[0], rows[1]
	if hub.Restored != 0 || hub.Dropped == 0 {
		t.Fatalf("hub topology should drop victims: %+v", hub)
	}
	if backup.Dropped != 0 || backup.Restored == 0 {
		t.Fatalf("backup topology should restore victims: %+v", backup)
	}
	if backup.ActiveAfter <= hub.ActiveAfter {
		t.Fatalf("backup kept %d active vs hub %d", backup.ActiveAfter, hub.ActiveAfter)
	}
}
