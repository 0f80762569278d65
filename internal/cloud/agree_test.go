package cloud_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/epc"
)

// TestCanFitAgreesWithCreateStack: admission's dry run and the install are
// one placement. Over random host sizes and random histories of stack
// creates and deletes, CanFit must say, after every step and for each of the
// three vEPC templates, exactly whether CreateStack would place it. A 6- and
// a 4-vCPU host with the >100 Mbps vEPC (1+1+4+4 vCPU) is the case a
// free-vCPU-ordered install gets wrong: it fills the small host first and
// strands the second 4-vCPU gateway.
func TestCanFitAgreesWithCreateStack(t *testing.T) {
	tmpls := []cloud.Template{epc.Template(10), epc.Template(80), epc.Template(200)}
	flavors := []cloud.Flavor{cloud.FlavorSmall, cloud.FlavorMedium, cloud.FlavorLarge}
	check := func(t *testing.T, dc *cloud.DataCenter, seed int64, step int) {
		t.Helper()
		for i, tmpl := range tmpls {
			fits := dc.CanFit(tmpl)
			_, err := dc.CreateStack("probe", tmpl)
			if fits != (err == nil) {
				t.Fatalf("seed %d step %d, template %d: CanFit %v, CreateStack %v", seed, step, i, fits, err)
			}
			if err != nil && !errors.Is(err, cloud.ErrNoCapacity) {
				t.Fatalf("seed %d step %d, template %d: %v", seed, step, i, err)
			}
			dc.DeleteStack("probe")
		}
	}

	t.Run("6+4", func(t *testing.T) {
		dc := cloud.NewDataCenter("dc", "edge")
		for i, v := range []float64{6, 4} {
			if err := dc.AddHost(fmt.Sprintf("h%d", i+1), v, int(v)*4096, 1000); err != nil {
				t.Fatal(err)
			}
		}
		if !dc.CanFit(tmpls[2]) {
			t.Fatal("CanFit refuses the large vEPC on 6+4 free vCPUs")
		}
		check(t, dc, 0, 0)
	})

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dc := cloud.NewDataCenter("dc", "edge")
		hosts := 1 + rng.Intn(4)
		for h := 0; h < hosts; h++ {
			v := float64(2 + 2*rng.Intn(8))
			if err := dc.AddHost(fmt.Sprintf("h%d", h+1), v, int(v)*(1024+rng.Intn(4096)), 40+rng.Intn(400)); err != nil {
				t.Fatal(err)
			}
		}
		var live []string
		for step := 0; step < 40; step++ {
			check(t, dc, seed, step)
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				dc.DeleteStack(live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			var tmpl cloud.Template
			if rng.Intn(2) == 0 {
				tmpl = tmpls[rng.Intn(len(tmpls))]
			} else {
				vms := 1 + rng.Intn(3)
				for r := 0; r < vms; r++ {
					tmpl.Resources = append(tmpl.Resources, cloud.TemplateResource{Name: fmt.Sprintf("r%d", r), Flavor: flavors[rng.Intn(len(flavors))]})
				}
			}
			id := fmt.Sprintf("s%d", step)
			if _, err := dc.CreateStack(id, tmpl); err == nil {
				live = append(live, id)
			}
		}
		if msgs := dc.AuditConservation(); len(msgs) != 0 {
			t.Fatalf("seed %d: %v", seed, msgs)
		}
	}
}
