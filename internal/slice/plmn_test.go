package slice

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPLMNAllocateReleaseCycle(t *testing.T) {
	a := NewPLMNAllocator(3)
	p1, err := a.Allocate("s1")
	if err != nil {
		t.Fatal(err)
	}
	if p1.MCC != "001" || p1.MNC != "01" {
		t.Fatalf("first PLMN %v", p1)
	}
	p2, _ := a.Allocate("s2")
	p3, _ := a.Allocate("s3")
	if _, err := a.Allocate("s4"); !errors.Is(err, ErrPLMNExhausted) {
		t.Fatalf("4th allocate on limit-3: %v", err)
	}
	a.Release(p2)
	p4, err := a.Allocate("s4")
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p2 {
		t.Fatalf("recycled PLMN %v, want %v", p4, p2)
	}
	_ = p3
}

func TestPLMNOwner(t *testing.T) {
	a := NewPLMNAllocator(0)
	p, _ := a.Allocate("sliceX")
	owner, ok := a.Owner(p)
	if !ok || owner != "sliceX" {
		t.Fatalf("owner = %v %v", owner, ok)
	}
	a.Release(p)
	if _, ok := a.Owner(p); ok {
		t.Fatal("released PLMN still owned")
	}
}

func TestPLMNReleaseUnknownIsNoop(t *testing.T) {
	a := NewPLMNAllocator(2)
	a.Release(PLMN{MCC: "001", MNC: "55"})
	if a.Available() != 2 {
		t.Fatal("release of unknown PLMN changed availability")
	}
}

func TestPLMNDoubleReleaseDoesNotDuplicate(t *testing.T) {
	a := NewPLMNAllocator(2)
	p, _ := a.Allocate("s1")
	a.Release(p)
	a.Release(p)
	if got := a.Available(); got != 2 {
		t.Fatalf("available %d after double release", got)
	}
	// Pool must not hand the same PLMN out twice concurrently.
	q1, _ := a.Allocate("s2")
	q2, err := a.Allocate("s3")
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatalf("duplicate PLMN %v handed out", q1)
	}
}

func TestPLMNInUseSorted(t *testing.T) {
	a := NewPLMNAllocator(6)
	for i := 0; i < 5; i++ {
		a.Allocate(ID(rune('a' + i)))
	}
	got := a.InUse()
	if len(got) != 5 {
		t.Fatalf("in use %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].MNC <= got[i-1].MNC {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestPLMNDefaultLimit(t *testing.T) {
	a := NewPLMNAllocator(0)
	if a.Available() != DefaultPLMNLimit {
		t.Fatalf("default limit %d", a.Available())
	}
}

// Property: after any sequence of allocate/release, the number in use plus
// available equals the limit, and no PLMN is ever owned twice.
func TestPropertyPLMNConservation(t *testing.T) {
	f := func(ops []bool) bool {
		const limit = 6
		a := NewPLMNAllocator(limit)
		var held []PLMN
		for i, alloc := range ops {
			if alloc {
				p, err := a.Allocate(ID(rune(i)))
				if err == nil {
					held = append(held, p)
				} else if len(held) != limit {
					return false // exhausted while not full
				}
			} else if len(held) > 0 {
				a.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		inUse := a.InUse()
		if len(inUse) != len(held) {
			return false
		}
		seen := map[PLMN]bool{}
		for _, p := range inUse {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return a.Available() == limit-len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
