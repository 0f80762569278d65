package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkHandles is the handle-lifetime invariant: every live handle is the
// registered reservation of its ID and its cached links are what its hops
// resolve to now; every released handle is dead, resizes nothing and names
// the error; and the books balance.
func checkHandles(t *testing.T, n *Network, live, dead []*Reservation, step string) {
	t.Helper()
	n.mu.RLock()
	for _, r := range live {
		fresh, err := n.appendPathLinks(nil, r.Hops)
		if err != nil || !slices.Equal(fresh, r.links) || n.paths[r.ID] != r || r.net != n {
			n.mu.RUnlock()
			t.Fatalf("%s: live handle %s: cached links %v, fresh %v (%v)", step, r.ID, r.links, fresh, err)
		}
	}
	n.mu.RUnlock()
	before := booksOf(n)
	for _, r := range dead {
		if failed, err := n.ResizeEach([]*Reservation{r}, 1); !errors.Is(err, ErrUnknownPath) || failed != r.ID {
			t.Fatalf("%s: released handle %s resized: failed=%q err=%v", step, r.ID, failed, err)
		}
	}
	n.ReleaseEach(dead)
	if after := booksOf(n); !slices.Equal(before, after) {
		t.Fatalf("%s: released handles moved the books:\n before %v\n after  %v", step, before, after)
	}
	if msgs := n.AuditConservation(); len(msgs) != 0 {
		t.Fatalf("%s: %v", step, msgs)
	}
}

// TestHandleLifetimeRandomized drives a random sequence of every operation
// that creates, uses or kills a path handle, or changes the links under one,
// and checks the handle invariant after each step.
func TestHandleLifetimeRandomized(t *testing.T) {
	unwinds := 0
	links := [][2]string{{"enb1", "sw1"}, {"enb2", "sw1"}, {"enb1", "sw2"}, {"sw1", "sw2"}, {"sw1", "edge"}, {"sw1", "core"}, {"sw2", "core"}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := testNet(t)
		var live, dead []*Reservation
		kill := func(i int) {
			dead = append(dead, live[i])
			live = slices.Delete(live, i, i+1)
		}
		reserve := func(id string) {
			req := PathRequest{From: []string{"enb1", "enb2"}[rng.Intn(2)], To: []string{"edge", "core"}[rng.Intn(2)], MinMbps: 1 + rng.Float64()*40}
			if r, err := n.ReservePath(id, req); err == nil {
				live = append(live, r)
			}
		}
		for step := 0; step < 600; step++ {
			name := ""
			switch op := rng.Intn(8); {
			case op <= 1 || len(live) == 0:
				name = "reserve"
				reserve(fmt.Sprintf("p%d", step))
			case op == 2:
				name = "resize-each"
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				k := 1 + rng.Intn(min(len(live), 4))
				before := booksOf(n)
				// Sizes up to 400 Mbps overflow the 300-Mbps hops often
				// enough to exercise the unwind.
				if failed, err := n.ResizeEach(live[:k], 0.1+rng.Float64()*400); err != nil {
					if failed != live[0].ID {
						unwinds++ // at least one path had moved and was put back
					}
					if after := booksOf(n); !slices.Equal(before, after) {
						t.Fatalf("seed %d step %d: failed resize moved the books", seed, step)
					}
				}
			case op == 3 || op == 4:
				name = "release-each"
				i := rng.Intn(len(live))
				n.ReleaseEach([]*Reservation{live[i]})
				kill(i)
			case op == 5:
				name = "set-link-up"
				l := links[rng.Intn(len(links))]
				n.SetLinkUp(l[0], l[1], rng.Intn(3) > 0)
			case op == 6:
				name = "set-link-capacity"
				l := links[rng.Intn(len(links))]
				n.SetLinkCapacity(l[0], l[1], 50+rng.Float64()*2000)
			default:
				// A link fails: every path over it is released and reserved
				// again under its old ID around the failure, as restoration
				// does. The old handles must die with the old paths.
				name = "fail-reroute"
				l := links[rng.Intn(len(links))]
				victims := n.PathsOverLink(l[0], l[1])
				n.SetLinkUp(l[0], l[1], false)
				for _, id := range victims {
					i := slices.IndexFunc(live, func(r *Reservation) bool { return r.ID == id })
					n.ReleaseEach(live[i : i+1])
					kill(i)
					reserve(id)
				}
			}
			checkHandles(t, n, live, dead, fmt.Sprintf("seed %d step %d (%s)", seed, step, name))
		}
	}
	if unwinds == 0 {
		t.Fatal("no resize failed part-way; the unwind went untested")
	}
}

// TestHandlesConcurrent runs owners that reserve, resize and release their
// own handles against a goroutine flapping links and one reading the
// registry; the race detector owns the verdict, the audit the bookkeeping.
func TestHandlesConcurrent(t *testing.T) {
	n := testNet(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				var mine []*Reservation
				for _, enb := range []string{"enb1", "enb2"} {
					if r, err := n.ReservePath(fmt.Sprintf("w%d/%d/%s", w, i, enb), PathRequest{From: enb, To: "core", MinMbps: 1 + rng.Float64()*5}); err == nil {
						mine = append(mine, r)
					}
				}
				n.ResizeEach(mine, 1+rng.Float64()*5)
				n.ReleaseEach(mine)
				if _, err := n.ResizeEach(mine, 1); len(mine) > 0 && !errors.Is(err, ErrUnknownPath) {
					t.Errorf("released handles resized: %v", err)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			n.SetLinkUp("sw1", "core", i%2 == 0)
			n.SetLinkCapacity("enb1", "sw1", float64(500+i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_ = n.Reservations()
			_ = n.FlowTable("sw1")
			_ = n.AuditConservation()
		}
	}()
	wg.Wait()
	if msgs := n.AuditConservation(); len(msgs) != 0 || len(n.Reservations()) != 0 || len(n.FlowTable("sw1")) != 0 {
		t.Fatalf("after the run: %v, %d reservations, %d flows on sw1", msgs, len(n.Reservations()), len(n.FlowTable("sw1")))
	}
}

// TestFlowTableKeepsInstallOrder: a release takes exactly its own entries
// out of each switch and leaves the others in the order they were installed.
func TestFlowTableKeepsInstallOrder(t *testing.T) {
	n := testNet(t)
	h := map[string]*Reservation{}
	release := func(ids ...string) {
		for _, id := range ids {
			n.ReleaseEach([]*Reservation{h[id]})
		}
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		r, err := n.Reserve(id, []string{"enb1", "sw1", "sw2", "core"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		h[id] = r
	}
	order := func(node string) string {
		s := ""
		for _, f := range n.FlowTable(node) {
			s += f.PathID
		}
		return s
	}
	release("b", "d")
	h["b"], _ = n.Reserve("b", []string{"enb1", "sw1", "core"}, 1)
	if got := order("sw1"); got != "acb" {
		t.Fatalf("sw1 flow order %q, want acb", got)
	}
	if got := order("sw2"); got != "ac" {
		t.Fatalf("sw2 flow order %q, want ac", got)
	}
	// A path longer than a reservation's inline room, through sw1 twice:
	// both of its entries there go with it.
	long, err := n.Reserve("long", []string{"enb1", "sw1", "sw2", "sw1", "core"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h["long"] = long
	if got := order("sw1"); got != "acblonglong" {
		t.Fatalf("sw1 flow order %q, want acblonglong", got)
	}
	release("a", "long")
	if got := order("sw1") + "/" + order("sw2"); got != "cb/c" {
		t.Fatalf("flow order %q, want cb/c", got)
	}
	release("c", "b")
	if n.FlowTable("sw1") != nil || n.FlowTable("sw2") != nil {
		t.Fatal("flow entries left behind")
	}
}
