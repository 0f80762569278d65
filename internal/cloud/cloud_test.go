package cloud

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func dcWith(t *testing.T, hosts ...float64) *DataCenter {
	t.Helper()
	dc := NewDataCenter("edge", "edge")
	for i, v := range hosts {
		if err := dc.AddHost(fmt.Sprintf("h%d", i+1), v, int(v)*4096, int(v)*100); err != nil {
			t.Fatal(err)
		}
	}
	return dc
}

func tmplOf(flavors ...Flavor) Template {
	var t Template
	for i, f := range flavors {
		t.Resources = append(t.Resources, TemplateResource{Name: fmt.Sprintf("r%d", i), Flavor: f})
	}
	return t
}

func TestFlavorValidate(t *testing.T) {
	if err := FlavorSmall.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Flavor{
		{Name: "", VCPUs: 1, RAMMB: 1},
		{Name: "x", VCPUs: 0, RAMMB: 1},
		{Name: "x", VCPUs: 1, RAMMB: 0},
		{Name: "x", VCPUs: 1, RAMMB: 1, DiskGB: -1},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("flavor %+v accepted", f)
		}
	}
}

func TestTemplateValidate(t *testing.T) {
	if err := (Template{}).Validate(); err == nil {
		t.Fatal("empty template accepted")
	}
	dup := Template{Resources: []TemplateResource{
		{Name: "a", Flavor: FlavorSmall},
		{Name: "a", Flavor: FlavorSmall},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate resource accepted")
	}
	if got := tmplOf(FlavorSmall, FlavorLarge).TotalVCPUs(); got != 5 {
		t.Fatalf("total vcpus %v", got)
	}
}

func TestAddHostValidation(t *testing.T) {
	dc := NewDataCenter("d", "core")
	if err := dc.AddHost("", 4, 1, 1); err == nil {
		t.Fatal("empty host name accepted")
	}
	if err := dc.AddHost("h", 0, 1, 1); err == nil {
		t.Fatal("zero vcpus accepted")
	}
	if err := dc.AddHost("h", 4, 4096, 100); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddHost("h", 4, 4096, 100); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestCreateStackPlacesAllVMs(t *testing.T) {
	dc := dcWith(t, 8, 8)
	st, err := dc.CreateStack("s1", tmplOf(FlavorMedium, FlavorMedium, FlavorSmall))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 3 {
		t.Fatalf("placed %d VMs", len(st.VMs))
	}
	c := dc.Capacity()
	if c.UsedVCPUs != 5 || c.VMs != 3 || c.Stacks != 1 {
		t.Fatalf("capacity %+v", c)
	}
}

func TestCreateStackRollsBackOnFailure(t *testing.T) {
	dc := dcWith(t, 3) // 3 vCPUs total
	_, err := dc.CreateStack("s1", tmplOf(FlavorMedium, FlavorMedium))
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("expected capacity error, got %v", err)
	}
	if c := dc.Capacity(); c.UsedVCPUs != 0 || c.VMs != 0 {
		t.Fatalf("rollback leaked: %+v", c)
	}
	if _, ok := dc.Stack("s1"); ok {
		t.Fatal("failed stack registered")
	}
}

func TestCreateStackDuplicateID(t *testing.T) {
	dc := dcWith(t, 8)
	if _, err := dc.CreateStack("s1", tmplOf(FlavorSmall)); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.CreateStack("s1", tmplOf(FlavorSmall)); !errors.Is(err, ErrDuplicateStack) {
		t.Fatalf("duplicate stack: %v", err)
	}
}

func TestDeleteStackFreesCapacity(t *testing.T) {
	dc := dcWith(t, 8)
	dc.CreateStack("s1", tmplOf(FlavorLarge))
	dc.DeleteStack("s1")
	if c := dc.Capacity(); c.UsedVCPUs != 0 || c.Stacks != 0 {
		t.Fatalf("delete leaked %+v", c)
	}
	dc.DeleteStack("s1") // idempotent
}

func TestRAMConstraintBinds(t *testing.T) {
	dc := NewDataCenter("d", "edge")
	dc.AddHost("h1", 16, 2048, 100) // lots of CPU, little RAM
	if _, err := dc.CreateStack("s", tmplOf(FlavorMedium)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("RAM-bound placement: %v", err)
	}
}

func TestFirstFitNameOrder(t *testing.T) {
	dc := dcWith(t, 4, 8)
	st, _ := dc.CreateStack("s", tmplOf(FlavorSmall))
	if st.VMs[0].Host != "h1" {
		t.Fatalf("first-fit chose %s", st.VMs[0].Host)
	}
}

func TestCanFitDryRun(t *testing.T) {
	dc := dcWith(t, 4)
	if !dc.CanFit(tmplOf(FlavorLarge)) {
		t.Fatal("4-vCPU template should fit 4-vCPU host")
	}
	if dc.CanFit(tmplOf(FlavorLarge, FlavorSmall)) {
		t.Fatal("5 vCPUs cannot fit 4")
	}
	// Dry run must not consume anything.
	if c := dc.Capacity(); c.UsedVCPUs != 0 {
		t.Fatalf("CanFit consumed capacity %+v", c)
	}
	if dc.CanFit(Template{}) {
		t.Fatal("invalid template fits")
	}
}

func TestCanFitFragmentation(t *testing.T) {
	// Two hosts with 2 vCPUs each cannot host one 4-vCPU VM even though
	// total capacity suffices.
	dc := dcWith(t, 2, 2)
	if dc.CanFit(tmplOf(FlavorLarge)) {
		t.Fatal("fragmented capacity accepted a large VM")
	}
	if !dc.CanFit(tmplOf(FlavorMedium, FlavorMedium)) {
		t.Fatal("two mediums should fit two 2-vCPU hosts")
	}
}

func TestUtilization(t *testing.T) {
	dc := dcWith(t, 8)
	if dc.Utilization() != 0 {
		t.Fatal("fresh DC utilised")
	}
	dc.CreateStack("s", tmplOf(FlavorLarge))
	if got := dc.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization %v", got)
	}
}

func TestRegionRegistry(t *testing.T) {
	r := NewRegion()
	edge := NewDataCenter("edge", "edge")
	core := NewDataCenter("core", "core")
	if err := r.Add(edge); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(core); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(edge); err == nil {
		t.Fatal("duplicate DC accepted")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "core" {
		t.Fatalf("names %v", got)
	}
	if _, ok := r.Get("edge"); !ok {
		t.Fatal("Get edge failed")
	}
	if got := r.All(); len(got) != 2 || got[0].Name() != "core" {
		t.Fatal("All order wrong")
	}
}

// Property: used capacity equals the sum of live stacks' demands after any
// create/delete sequence, and never exceeds totals.
func TestPropertyCapacityConservation(t *testing.T) {
	f := func(ops []struct {
		Delete bool
		Size   uint8
	}) bool {
		dc := dcWith(t, 16, 16)
		type liveStack struct {
			id    string
			vcpus float64
		}
		var live []liveStack
		for i, op := range ops {
			if op.Delete && len(live) > 0 {
				dc.DeleteStack(live[0].id)
				live = live[1:]
				continue
			}
			fl := []Flavor{FlavorSmall, FlavorMedium, FlavorLarge}[op.Size%3]
			id := fmt.Sprintf("s%d", i)
			if _, err := dc.CreateStack(id, tmplOf(fl)); err == nil {
				live = append(live, liveStack{id, fl.VCPUs})
			}
		}
		want := 0.0
		for _, s := range live {
			want += s.vcpus
		}
		c := dc.Capacity()
		return math.Abs(c.UsedVCPUs-want) < 1e-9 &&
			c.UsedVCPUs <= c.TotalVCPUs+1e-9 &&
			c.Stacks == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
