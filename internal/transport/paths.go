package transport

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// PathRequest describes the constraints of a path computation: minimum
// residual bandwidth on every hop and a maximum end-to-end delay. This is
// the CSPF query the demo's transport controller answers when a slice is
// installed ("dedicated paths are selected to guarantee the required delay
// and capacity in the transport network").
type PathRequest struct {
	From, To string
	// MinMbps is the bandwidth the path must be able to reserve.
	MinMbps float64
	// MaxDelayMs caps the path delay; <= 0 means unconstrained.
	MaxDelayMs float64
}

// Path is a computed (not yet reserved) route.
type Path struct {
	Hops    []string
	DelayMs float64
	// BottleneckMbps is the smallest residual capacity along the path.
	BottleneckMbps float64
}

// heapNode is one priority-queue entry: a dense node index keyed by
// tentative delay. Duplicates are allowed (lazy deletion, as before).
type heapNode struct {
	delay float64
	node  int32
}

// heapUp/heapDown/heapPush/heapPop replicate container/heap's sift
// algorithm exactly, with the same strict delay-only Less the old pointer
// queue used. Equal-delay entries therefore pop in the identical order the
// old implementation produced, which fixed-seed goldens depend on.
func heapUp(h []heapNode, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].delay < h[i].delay) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func heapDown(h []heapNode, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].delay < h[j1].delay {
			j = j2 // right child
		}
		if !(h[j].delay < h[i].delay) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func heapPush(h *[]heapNode, x heapNode) {
	*h = append(*h, x)
	heapUp(*h, len(*h)-1)
}

func heapPop(h *[]heapNode) heapNode {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	heapDown(old[:n], 0)
	*h = old[:n]
	return old[n]
}

// dijkstraScratch holds the per-run working arrays of the path computation,
// indexed by dense node index and recycled through a pool so steady-state
// path queries allocate nothing.
type dijkstraScratch struct {
	dist    []float64
	prevIdx []int32
	prevLnk []*Link
	visited []bool
	heap    []heapNode
}

var dijkstraPool = sync.Pool{New: func() any { return new(dijkstraScratch) }}

// reset sizes the arrays for n nodes and restores initial state.
func (s *dijkstraScratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prevIdx = make([]int32, n)
		s.prevLnk = make([]*Link, n)
		s.visited = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prevIdx = s.prevIdx[:n]
	s.prevLnk = s.prevLnk[:n]
	s.visited = s.visited[:n]
	for i := 0; i < n; i++ {
		s.dist[i] = math.Inf(1)
		s.prevIdx[i] = -1
		s.prevLnk[i] = nil
		s.visited[i] = false
	}
	s.heap = s.heap[:0]
}

// ShortestPath computes the minimum-delay path satisfying the request's
// bandwidth constraint (links with insufficient residual are pruned), then
// verifies the delay budget. It returns ErrNoPath when the pruned graph is
// disconnected and ErrDelayBudget when a path exists but misses the budget.
// The computation holds only the shared read lock, so admission feasibility
// checks from concurrent slice requests run fully in parallel.
//
// Dijkstra runs by delay: neighbours are scanned in insertion order and ties
// resolve deterministically via the (delay, insertion seq) queue ordering.
// The working arrays come from a pool; only the returned hop list allocates.
func (n *Network) ShortestPath(req PathRequest) (Path, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := dijkstraPool.Get().(*dijkstraScratch)
	defer dijkstraPool.Put(s)
	d, to, err := n.dijkstraLocked(s, req)
	if err != nil {
		return Path{}, err
	}

	// Rebuild hop list from the predecessor chain, front-filled.
	depth := 1
	for at := to; s.prevIdx[at] >= 0; at = s.prevIdx[at] {
		depth++
	}
	hops := make([]string, depth)
	bott := math.Inf(1)
	for at, i := to, depth-1; ; i-- {
		hops[i] = n.names[at]
		l := s.prevLnk[at]
		if l == nil {
			break
		}
		if r := l.ResidualMbps(); r < bott {
			bott = r
		}
		at = s.prevIdx[at]
	}
	return Path{Hops: hops, DelayMs: d, BottleneckMbps: bott}, nil
}

// dijkstraLocked is the shared search core: it fills s with the shortest
// delay tree from req.From and returns the delay and dense index of req.To.
// It performs no allocations beyond scratch growth on first use.
func (n *Network) dijkstraLocked(s *dijkstraScratch, req PathRequest) (float64, int32, error) {
	from, ok := n.idx[req.From]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, req.From)
	}
	to, ok := n.idx[req.To]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, req.To)
	}

	s.reset(len(n.names))
	s.dist[from] = 0
	heapPush(&s.heap, heapNode{delay: 0, node: from})

	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		if s.visited[it.node] {
			continue
		}
		s.visited[it.node] = true
		if it.node == to {
			break
		}
		for _, l := range n.adjx[it.node] {
			if !l.Up {
				continue
			}
			if l.ResidualMbps() < req.MinMbps-1e-9 {
				continue
			}
			nd := it.delay + l.DelayMs
			if nd < s.dist[l.toIdx] {
				s.dist[l.toIdx] = nd
				s.prevIdx[l.toIdx] = it.node
				s.prevLnk[l.toIdx] = l
				heapPush(&s.heap, heapNode{delay: nd, node: l.toIdx})
			}
		}
	}

	d := s.dist[to]
	if math.IsInf(d, 1) {
		return 0, 0, fmt.Errorf("%w: %s -> %s at %.1f Mbps", ErrNoPath, req.From, req.To, req.MinMbps)
	}
	if req.MaxDelayMs > 0 && d > req.MaxDelayMs+1e-9 {
		return 0, 0, fmt.Errorf("%w: best %.2f ms > budget %.2f ms", ErrDelayBudget, d, req.MaxDelayMs)
	}
	return d, to, nil
}

// PathDelay computes the minimum feasible delay for the request without
// materialising the hop list — the allocation-free form of ShortestPath for
// feasibility checks that only need the delay answer.
func (n *Network) PathDelay(req PathRequest) (float64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := dijkstraPool.Get().(*dijkstraScratch)
	defer dijkstraPool.Put(s)
	d, _, err := n.dijkstraLocked(s, req)
	return d, err
}

// ReservePath computes the best path for req and reserves req.MinMbps on it
// under pathID — the common fast path for slice installation. The
// computation runs under the shared read lock and the reservation
// revalidates residuals under the write lock, so a concurrent installation
// may have consumed the chosen path's bandwidth in between; in that case
// the computation is retried on the updated topology (optimistic
// concurrency) before the bandwidth error is surfaced.
func (n *Network) ReservePath(pathID string, req PathRequest) (*Reservation, error) {
	const attempts = 4
	var err error
	for try := 0; try < attempts; try++ {
		var p Path
		p, err = n.ShortestPath(req)
		if err != nil {
			return nil, err
		}
		var r *Reservation
		r, err = n.Reserve(pathID, p.Hops, req.MinMbps)
		if err == nil {
			return r, nil
		}
		if !errors.Is(err, ErrInsufficientBW) {
			return nil, err
		}
	}
	return nil, err
}
