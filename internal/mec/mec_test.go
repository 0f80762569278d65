package mec

import (
	"errors"
	"testing"
)

func pool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool()
	if err := p.AddHost("mec-h1", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost("mec-h2", 2); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCPUForMbps(t *testing.T) {
	cases := map[float64]float64{0: 1, 5: 1, 20: 1, 21: 2, 40: 2, 100: 5}
	for mbps, want := range cases {
		if got := CPUForMbps(mbps); got != want {
			t.Fatalf("CPUForMbps(%.0f) = %.1f, want %.1f", mbps, got, want)
		}
	}
}

func TestPlaceFirstFitByHostName(t *testing.T) {
	p := pool(t)
	a, err := p.Place("s-1/app", "s-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Host != "mec-h1" {
		t.Fatalf("placed on %s, want mec-h1 (first fit, name order)", a.Host)
	}
	// 1 CPU left on h1, 2 on h2: a 2-CPU app lands on h2.
	b, err := p.Place("s-2/app", "s-2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Host != "mec-h2" {
		t.Fatalf("placed on %s, want mec-h2", b.Host)
	}
	if _, err := p.Place("s-3/app", "s-3", 2); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overfull place error = %v", err)
	}
	if _, err := p.Place("s-1/app", "s-1", 1); !errors.Is(err, ErrDuplicateApp) {
		t.Fatalf("duplicate place error = %v", err)
	}
	if u := p.Utilization(); u != 5.0/6.0 {
		t.Fatalf("utilization %g", u)
	}
}

func TestResizeAndRemove(t *testing.T) {
	p := pool(t)
	if _, err := p.Place("s-1/app", "s-1", 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize("s-1/app", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize("s-1/app", 5); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("grow past host error = %v", err)
	}
	if a, _ := p.App("s-1/app"); a.CPU != 4 {
		t.Fatalf("CPU %v after failed grow, want 4", a.CPU)
	}
	if err := p.Resize("s-1/app", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize("ghost", 1); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown resize error = %v", err)
	}
	p.Remove("s-1/app")
	p.Remove("s-1/app") // idempotent
	if u := p.Utilization(); u != 0 {
		t.Fatalf("utilization %g after remove", u)
	}
	// CanFit is per-host: 6 CPUs never fit on 4+2-CPU hosts.
	if p.CanFit(6) {
		t.Fatal("CanFit(6) = true on 4+2 hosts")
	}
	if !p.CanFit(4) {
		t.Fatal("CanFit(4) = false on an empty 4-CPU host")
	}
}
