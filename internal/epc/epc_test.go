package epc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/slice"
)

var (
	plmnA = slice.PLMN{MCC: "001", MNC: "01"}
	plmnB = slice.PLMN{MCC: "001", MNC: "02"}
	t0    = time.Date(2018, 8, 20, 12, 0, 0, 0, time.UTC)
)

func TestTemplateScalesGateways(t *testing.T) {
	small := Template(20)
	med := Template(80)
	large := Template(200)
	find := func(tm cloud.Template, name string) cloud.Flavor {
		for _, r := range tm.Resources {
			if r.Name == name {
				return r.Flavor
			}
		}
		t.Fatalf("component %s missing", name)
		return cloud.Flavor{}
	}
	if find(small, CompSGW) != cloud.FlavorSmall ||
		find(med, CompSGW) != cloud.FlavorMedium ||
		find(large, CompPGW) != cloud.FlavorLarge {
		t.Fatal("gateway flavors do not scale with throughput")
	}
	// Control plane stays small regardless.
	if find(large, CompMME) != cloud.FlavorSmall || find(large, CompHSS) != cloud.FlavorSmall {
		t.Fatal("control-plane components should stay small")
	}
	for _, tm := range []cloud.Template{small, med, large} {
		if err := tm.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(tm.Resources) != 4 {
			t.Fatalf("vEPC has %d components", len(tm.Resources))
		}
	}
}

func TestVCPUDemandMonotone(t *testing.T) {
	if !(VCPUDemand(10) < VCPUDemand(80) && VCPUDemand(80) < VCPUDemand(150)) {
		t.Fatalf("vCPU demand not monotone: %v %v %v", VCPUDemand(10), VCPUDemand(80), VCPUDemand(150))
	}
}

func TestQCIMapping(t *testing.T) {
	cases := map[slice.ServiceClass]int{
		slice.ClassAutomotive: 3,
		slice.ClassEHealth:    2,
		slice.ClassMMTC:       8,
		slice.ClassEMBB:       9,
	}
	for class, want := range cases {
		if got := QCIFor(class); got != want {
			t.Fatalf("QCI(%v) = %d, want %d", class, got, want)
		}
	}
}

func TestInstanceLifecycle(t *testing.T) {
	in := NewInstance("epc-1", plmnA, "edge", "stack-1", slice.ClassEMBB)
	if in.State() != StateDeploying {
		t.Fatalf("initial state %v", in.State())
	}
	if _, err := in.Attach(UE{IMSI: "001010000000001", PLMN: plmnA}, t0); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("attach while deploying: %v", err)
	}
	if err := in.MarkRunning(t0); err != nil {
		t.Fatal(err)
	}
	if err := in.MarkRunning(t0); err == nil {
		t.Fatal("double MarkRunning accepted")
	}
	b, err := in.Attach(UE{IMSI: "001010000000001", PLMN: plmnA}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if b.EBI != 5 || b.QCI != 9 {
		t.Fatalf("bearer %+v", b)
	}
	in.Stop()
	if in.State() != StateStopped || in.Attached() != 0 {
		t.Fatal("stop did not drop bearers")
	}
}

func TestAttachDuplicateIMSI(t *testing.T) {
	in := NewInstance("epc-1", plmnA, "edge", "s", slice.ClassEMBB)
	in.MarkRunning(t0)
	ue := UE{IMSI: "imsi-1", PLMN: plmnA}
	if _, err := in.Attach(ue, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Attach(ue, t0); !errors.Is(err, ErrAlreadyAttached) {
		t.Fatalf("duplicate attach: %v", err)
	}
}

func TestEBIWraps(t *testing.T) {
	in := NewInstance("epc-1", plmnA, "edge", "s", slice.ClassEMBB)
	in.MarkRunning(t0)
	for i := 0; i < 11; i++ { // EBIs 5..15
		if _, err := in.Attach(UE{IMSI: fmt.Sprintf("i%d", i), PLMN: plmnA}, t0); err != nil {
			t.Fatal(err)
		}
	}
	b, err := in.Attach(UE{IMSI: "i11", PLMN: plmnA}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if b.EBI != 5 {
		t.Fatalf("EBI after wrap = %d", b.EBI)
	}
}

func TestRegistryRouting(t *testing.T) {
	r := NewRegistry()
	a := NewInstance("epc-a", plmnA, "edge", "sa", slice.ClassEMBB)
	b := NewInstance("epc-b", plmnB, "core", "sb", slice.ClassEMBB)
	if err := r.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(a); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate add: %v", err)
	}

	// No instance running yet: attach must fail with no-serving-EPC.
	if _, err := r.Attach(UE{IMSI: "x", PLMN: plmnA}, t0); !errors.Is(err, ErrNoServingEPC) {
		t.Fatalf("attach before running: %v", err)
	}
	a.MarkRunning(t0)
	b.MarkRunning(t0)

	if _, err := r.Attach(UE{IMSI: "x", PLMN: plmnA}, t0); err != nil {
		t.Fatal(err)
	}
	if a.Attached() != 1 || b.Attached() != 0 {
		t.Fatal("attach routed to wrong instance")
	}
	if _, err := r.Attach(UE{IMSI: "y", PLMN: slice.PLMN{MCC: "001", MNC: "99"}}, t0); !errors.Is(err, ErrNoServingEPC) {
		t.Fatalf("unknown PLMN: %v", err)
	}

	r.Remove("epc-a")
	if _, ok := r.Get("epc-a"); ok {
		t.Fatal("removed instance still present")
	}
	if a.State() != StateStopped {
		t.Fatal("remove did not stop instance")
	}
	r.Remove("epc-a") // idempotent
}

func TestRegistryAllSorted(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"epc-c", "epc-a", "epc-b"} {
		r.Add(NewInstance(id, plmnA, "edge", "s", slice.ClassEMBB))
	}
	all := r.All()
	if len(all) != 3 || all[0].ID() != "epc-a" || all[2].ID() != "epc-c" {
		t.Fatal("All not sorted")
	}
}

func TestSnapshot(t *testing.T) {
	in := NewInstance("epc-1", plmnA, "edge", "stack-9", slice.ClassEMBB)
	in.MarkRunning(t0)
	in.Attach(UE{IMSI: "i", PLMN: plmnA}, t0)
	s := in.Snapshot()
	if s.ID != "epc-1" || s.State != "running" || s.AttachedUE != 1 || s.Stack != "stack-9" {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestBootDelayFewSeconds(t *testing.T) {
	for _, mbps := range []float64{10, 80, 200} {
		d := BootDelayFor(mbps)
		if d < 2*time.Second || d > 15*time.Second {
			t.Fatalf("boot delay %v for %.0f Mbps outside 'few seconds'", d, mbps)
		}
	}
	if BootDelayFor(200) <= BootDelayFor(10) {
		t.Fatal("boot delay should grow with size")
	}
}

func TestStateString(t *testing.T) {
	if StateDeploying.String() != "deploying" || StateRunning.String() != "running" || StateStopped.String() != "stopped" {
		t.Fatal("state names")
	}
}
