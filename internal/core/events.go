package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/slice"
)

// This file implements the slice-lifecycle event bus: every orchestrator
// transition is published as a typed Event carrying a monotonically
// increasing global sequence number, with a bounded replay ring so
// subscribers can resume from any recent sequence (DESIGN.md §6).
//
// The bus is deliberately decoupled from the sharded hot path: shards
// publish by appending to the ring under the bus's own (leaf) mutex —
// sequence numbers are assigned there, not by shard counters — and wake
// subscribers with a condition-variable broadcast. Each subscriber drains
// the ring from its own goroutine at its own pace, so a slow or dead
// subscriber can never stall admission: when the ring laps a subscriber's
// cursor it receives a single EventResync marker (telling it to re-List and
// continue) instead of backpressuring the core.

// EventType names one kind of slice-lifecycle event. The values are stable
// API surface: they are the SSE `event:` field of GET /api/v2/events and the
// `type` field of the Event JSON encoding.
type EventType string

// The slice-lifecycle event taxonomy.
const (
	// EventSubmitted: a request reached the orchestrator and got an ID.
	EventSubmitted EventType = "submitted"
	// EventAdmitted: admission passed and the multi-domain install is
	// scheduled (slice state "installing").
	EventAdmitted EventType = "admitted"
	// EventRejected: admission turned the request down; RejectCode carries
	// the stable taxonomy bucket.
	EventRejected EventType = "rejected"
	// EventInstalled: the installation stages finished and the slice turned
	// Active (UEs may attach).
	EventInstalled EventType = "installed"
	// EventResized: the overbooking loop, squeeze or degradation handling
	// changed the slice's reservation; Mbps is the new allocation.
	EventResized EventType = "resized"
	// EventViolation: a monitoring epoch charged an SLA violation.
	EventViolation EventType = "violation"
	// EventExpired: the slice reached its contracted expiry and was torn
	// down.
	EventExpired EventType = "expired"
	// EventDeleted: the slice was torn down before expiry (tenant delete,
	// EPC boot failure, or an unrecoverable transport failure — see Detail).
	EventDeleted EventType = "deleted"
	// EventRestored: the slice's transport paths were re-routed around a
	// failed or degraded link.
	EventRestored EventType = "restored"
	// EventLinkFailed: a directed transport link went down; Link is
	// "from->to".
	EventLinkFailed EventType = "link-failed"
	// EventLinkDegraded: a directed transport link's capacity was rescaled.
	EventLinkDegraded EventType = "link-degraded"
	// EventLinkRestored: a directed transport link came back up.
	EventLinkRestored EventType = "link-restored"
	// EventResync is the backpressure marker: events before Seq were lost to
	// this subscriber (slow consumer, or a Since older than the replay
	// ring). Re-List current state and keep consuming.
	EventResync EventType = "resync"
	// EventShutdown is the terminal event of a clean daemon shutdown: the
	// stream ends here on purpose, subscribers should not expect more
	// events until the orchestrator recovers under a new run.
	EventShutdown EventType = "shutdown"
)

// Event is one ordered slice-lifecycle event. Seq is a global, strictly
// increasing sequence number: a subscriber that resumes with
// WatchOptions.Since (or GET /api/v2/events?since=) set to the last Seq it
// saw observes the exact same ordered tail an uninterrupted subscriber
// would, as long as the replay ring still holds it.
type Event struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// Slice-scoped fields (empty on link events and resync markers).
	Slice  slice.ID `json:"slice,omitempty"`
	Tenant string   `json:"tenant,omitempty"`
	// State is the slice's lifecycle state after the transition.
	State      string           `json:"state,omitempty"`
	RejectCode slice.RejectCode `json:"reject_code,omitempty"`
	// Mbps is the slice's current radio allocation (0 before install).
	Mbps float64 `json:"mbps,omitempty"`
	// Link is the directed transport link ("from->to") on link events.
	Link   string `json:"link,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WatchOptions filters and positions one event subscription.
type WatchOptions struct {
	// Since positions the stream: 0 tails only new events; > 0 resumes
	// after that sequence number (replaying retained events Seq > Since);
	// < 0 replays everything the ring still holds before tailing. A Since
	// beyond the current head (e.g. a token from a previous daemon run)
	// yields an immediate EventResync.
	Since int64
	// Tenants keeps only events for these tenants (nil = all). Link events
	// carry no tenant and are filtered out when this is set.
	Tenants []string
	// States keeps only events whose post-transition slice state matches
	// (nil = all).
	States []string
	// Types keeps only these event types (nil = all).
	Types []EventType
	// Buffer is the subscriber channel capacity (default 64).
	Buffer int
}

func (o WatchOptions) match(ev Event) bool {
	if ev.Type == EventResync {
		return true // resync markers always pass: they carry the contract
	}
	if len(o.Types) > 0 && !slices.Contains(o.Types, ev.Type) {
		return false
	}
	if len(o.Tenants) > 0 && !slices.Contains(o.Tenants, ev.Tenant) {
		return false
	}
	if len(o.States) > 0 && !slices.Contains(o.States, ev.State) {
		return false
	}
	return true
}

// EventBus is the orchestrator's lifecycle event fan-out: a bounded replay
// ring plus any number of pull-based subscribers. Safe for concurrent use.
//
// The lock is a RWMutex with the condition variable on its read side:
// publishers take the write lock only for the O(1) sequence-assign-and-
// append, while any number of subscriber drain goroutines read the ring
// concurrently under read locks — so a large fan-out contends with itself,
// not with the admission hot path.
type EventBus struct {
	mu   sync.RWMutex
	cond *sync.Cond // on mu.RLocker(): readers wait, the writer broadcasts
	ring []Event
	next int64 // next sequence number to assign; the first event gets 1
	// tap, when set, observes every event synchronously under the bus
	// mutex, in sequence order — the invariant auditor's gap-freeness and
	// state-legality checks need exactly that ordering guarantee, which no
	// asynchronous subscriber can provide.
	tap func(Event)
}

// NewEventBus builds a bus retaining the last capacity events for replay
// (default 1024).
func NewEventBus(capacity int) *EventBus {
	if capacity <= 0 {
		capacity = 1024
	}
	b := &EventBus{ring: make([]Event, capacity), next: 1}
	b.cond = sync.NewCond(b.mu.RLocker())
	return b
}

// Publish assigns ev the next global sequence number, appends it to the
// replay ring and wakes subscribers. It never blocks beyond the bus mutex —
// subscriber backpressure is absorbed by per-subscriber cursors, not by the
// publisher — so it is safe to call from the admission hot path under shard
// locks. Returns the assigned sequence number.
func (b *EventBus) Publish(ev Event) int64 {
	b.publish(&ev)
	return ev.Seq
}

// publish is Publish for a caller that owns *ev: the sequence number is
// assigned in place, and the ring's slot is the one copy made.
func (b *EventBus) publish(ev *Event) {
	b.mu.Lock()
	ev.Seq = b.next
	b.next++
	b.ring[(ev.Seq-1)%int64(len(b.ring))] = *ev
	if b.tap != nil {
		b.tap(*ev)
	}
	b.mu.Unlock()
	// Waiters register with the cond before releasing their read lock, and
	// the write above excludes read lock holders, so broadcasting after
	// unlock cannot miss a waiter.
	b.cond.Broadcast()
}

// Restore advances the bus's next sequence number to at least next. It is
// the recovery primitive restoring the sequence space from a checkpoint;
// it never rewinds (replayed events re-published out of the log keep their
// original numbering via Republish).
func (b *EventBus) Restore(next int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if next > b.next {
		b.next = next
	}
}

// Republish re-inserts a logged event into the replay ring under its
// original sequence number — the log-replay primitive. Unlike Publish it
// assigns nothing, and it deliberately bypasses the tap: the invariant
// auditor is primed with the post-recovery state once replay finishes,
// rather than observing the historical stream twice.
func (b *EventBus) Republish(ev Event) {
	if ev.Seq <= 0 {
		return
	}
	b.mu.Lock()
	b.ring[(ev.Seq-1)%int64(len(b.ring))] = ev
	if ev.Seq >= b.next {
		b.next = ev.Seq + 1
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// SetTap installs the synchronous event observer (nil clears it). It must
// be set before any event is published — the orchestrator wires it at
// construction; installing it mid-stream would hand the observer a
// sequence that does not start where its state does.
func (b *EventBus) SetTap(tap func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tap = tap
}

// LastSeq returns the sequence number of the most recent event (0 when none
// has been published yet).
func (b *EventBus) LastSeq() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.next - 1
}

// oldestLocked returns the sequence of the oldest event the ring still
// holds. Caller holds b.mu.
func (b *EventBus) oldestLocked() int64 {
	o := b.next - int64(len(b.ring))
	if o < 1 {
		o = 1
	}
	return o
}

// Recent returns up to n of the most recent events, oldest first (n <= 0
// returns everything retained).
func (b *EventBus) Recent(n int) []Event {
	b.mu.RLock()
	defer b.mu.RUnlock()
	last := b.next - 1
	first := b.oldestLocked()
	if last < first {
		return nil
	}
	if n > 0 && last-first+1 > int64(n) {
		first = last - int64(n) + 1
	}
	out := make([]Event, 0, last-first+1)
	for s := first; s <= last; s++ {
		out = append(out, b.ring[(s-1)%int64(len(b.ring))])
	}
	return out
}

// Watch subscribes to the event stream. The returned channel delivers
// events in sequence order until ctx is cancelled, then closes. Each
// subscription drains the replay ring from its own goroutine, so a slow
// receiver delays only itself: if the ring laps its cursor it receives one
// EventResync marker and continues from the oldest retained event.
func (b *EventBus) Watch(ctx context.Context, opts WatchOptions) <-chan Event {
	buf := opts.Buffer
	if buf <= 0 {
		buf = 64
	}
	out := make(chan Event, buf)

	b.mu.RLock()
	var cursor int64 // deliver events with Seq > cursor
	switch {
	case opts.Since > 0:
		cursor = opts.Since
	case opts.Since == 0:
		cursor = b.next - 1
	default:
		cursor = 0
	}
	if head := b.next - 1; cursor > head {
		// A resume token ahead of the stream (stale token from another
		// run): resync immediately; the buffered channel always has room.
		out <- Event{Seq: head, Type: EventResync,
			Detail: "requested sequence ahead of stream; state must be re-listed"}
		cursor = head
	}
	b.mu.RUnlock()

	// Wake the drain goroutine out of cond.Wait when ctx is cancelled. The
	// write lock is taken first so a waiter between its ctx check and
	// cond.Wait registration (it holds the read lock throughout) cannot
	// miss this broadcast.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.mu.Unlock() //nolint:staticcheck // empty critical section is the fence
		b.cond.Broadcast()
	})

	go func() {
		defer stop()
		defer close(out)
		for {
			b.mu.RLock()
			for b.next-1 <= cursor && ctx.Err() == nil {
				b.cond.Wait()
			}
			if ctx.Err() != nil {
				b.mu.RUnlock()
				return
			}
			var ev Event
			if oldest := b.oldestLocked(); cursor+1 < oldest {
				// The ring lapped this subscriber: everything up to
				// oldest-1 is gone. Emit the resync contract and continue
				// from what is still retained.
				ev = Event{Seq: oldest - 1, Type: EventResync,
					Time:   b.ring[(oldest-1)%int64(len(b.ring))].Time,
					Detail: "subscriber lagged past the replay ring; state must be re-listed"}
				cursor = oldest - 1
			} else {
				cursor++
				ev = b.ring[(cursor-1)%int64(len(b.ring))]
			}
			b.mu.RUnlock()
			if !opts.match(ev) {
				continue
			}
			select {
			case out <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// Events returns the orchestrator's lifecycle event bus (replay ring reads,
// LastSeq; most consumers want Watch instead).
func (o *Orchestrator) Events() *EventBus { return o.bus }

// Watch subscribes to the orchestrator's ordered lifecycle event stream;
// see EventBus.Watch and WatchOptions for positioning, filtering and the
// resync contract. Safe for concurrent use; any number of subscribers may
// watch without affecting admission throughput.
func (o *Orchestrator) Watch(ctx context.Context, opts WatchOptions) <-chan Event {
	return o.bus.Watch(ctx, opts)
}

// publish emits a slice-scoped lifecycle event. Callers may hold shard
// locks: the bus mutex is a leaf and Publish never blocks on subscribers.
// The published event (with its assigned sequence number) is returned so
// mutation paths can embed it in their write-ahead records.
func (o *Orchestrator) publish(typ EventType, s *slice.Slice, detail string) Event {
	var ev Event
	o.publishView(&ev, typ, s, s.EventView(), detail)
	return ev
}

// publishView is publish for a caller that already holds the slice's event
// view (the resize path cuts it in the critical section that ends the
// reconfiguration). It fills *ev and publishes it in place: ev is the
// numbered event, and the bus's ring takes the only copy. Every field but
// Seq, which the bus assigns, is written one by one — a composite literal
// would be built aside and copied in.
func (o *Orchestrator) publishView(ev *Event, typ EventType, s *slice.Slice, v slice.EventView, detail string) {
	ev.Time = o.clock.Now()
	ev.Type = typ
	ev.Slice = s.ID()
	ev.Tenant = s.Tenant()
	ev.State = v.State.String()
	ev.RejectCode = v.RejectCode
	ev.Mbps = v.AllocatedMbps
	ev.Link = ""
	ev.Detail = detail
	o.bus.publish(ev)
}

// publishLink emits a transport-link event and returns it with its
// assigned sequence number.
func (o *Orchestrator) publishLink(typ EventType, link, detail string) Event {
	ev := Event{Time: o.clock.Now(), Type: typ, Link: link, Detail: detail}
	ev.Seq = o.bus.Publish(ev)
	return ev
}
