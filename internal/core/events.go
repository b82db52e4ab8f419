package core

import (
	"sync/atomic"
	"time"
)

// Event is one typed observability event published by a RUM instance:
// an AckEvent, ProbeEvent, or FallbackEvent. Subscribe with
// RUM.Subscribe. Events are the structured form of the aggregate
// counters reported by RUM.Stats.
type Event interface {
	isEvent()
}

// AckEvent is published every time an update resolves (any Outcome,
// including OutcomeFailed, which produces no wire-level ack).
type AckEvent struct {
	// Switch is the switch the modification targeted.
	Switch string
	// XID is the controller transaction id of the FlowMod.
	XID uint32
	// Outcome is the typed confirmation result.
	Outcome Outcome
	// Code is the wire-level RUM ack code (zero for OutcomeFailed).
	Code uint16
	// IssuedAt and At bracket the update's lifetime on the RUM clock.
	IssuedAt time.Duration
	At       time.Duration
	// Latency is the activation latency RUM observed (At - IssuedAt).
	Latency time.Duration
	// Err carries the typed failure cause for OutcomeFailed resolutions
	// (ErrChannelLost, ErrSwitchRestarted, ErrSwitchRejected), nil
	// otherwise.
	Err error
}

func (AckEvent) isEvent() {}

// ProbeEvent is published when probe packets are injected for a switch.
type ProbeEvent struct {
	// Switch is the probed switch.
	Switch string
	// Count is how many probe packets this injection covered.
	Count int
	At    time.Duration
}

func (ProbeEvent) isEvent() {}

// FallbackEvent is published when a strategy abandons data-plane probing
// for one update and takes a control-plane fallback.
type FallbackEvent struct {
	Switch string
	XID    uint32
	At     time.Duration
}

func (FallbackEvent) isEvent() {}

// Subscription is one subscriber's view of a RUM instance's event
// stream. Receive from C; call Close when done. Delivery is best-effort:
// events that would block are dropped and counted.
type Subscription struct {
	// C carries the events.
	C <-chan Event

	r       *RUM
	ch      chan Event
	dropped atomic.Uint64
	closed  atomic.Bool
}

// Subscribe registers a new event subscriber with the given channel
// buffer (minimum 1). Events published while the buffer is full are
// dropped, never blocking the update pipeline.
func (r *RUM) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{r: r, ch: make(chan Event, buf)}
	s.C = s.ch
	r.subsMu.Lock()
	subs := append(append([]*Subscription(nil), r.subsSnapshot()...), s)
	r.subs.Store(&subs)
	r.subsMu.Unlock()
	return s
}

// Close unregisters the subscription. It does not close C (late sends
// race-free); after Close no further events are delivered.
func (s *Subscription) Close() {
	if s.closed.Swap(true) {
		return
	}
	r := s.r
	r.subsMu.Lock()
	var kept []*Subscription
	for _, q := range r.subsSnapshot() {
		if q != s {
			kept = append(kept, q)
		}
	}
	r.subs.Store(&kept)
	r.subsMu.Unlock()
}

// Dropped reports how many events were discarded because the buffer was
// full.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

func (s *Subscription) deliver(ev Event) {
	if s.closed.Load() {
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
	}
}

// subsSnapshot returns the current subscriber list (nil when nobody
// listens). The list is copy-on-write, so the snapshot is immutable and
// publishers from different shards never serialize.
func (r *RUM) subsSnapshot() []*Subscription {
	if p := r.subs.Load(); p != nil {
		return *p
	}
	return nil
}

func fanout(subs []*Subscription, ev Event) {
	for _, s := range subs {
		s.deliver(ev)
	}
}

// publish fans an event out to every subscriber.
func (r *RUM) publish(ev Event) {
	fanout(r.subsSnapshot(), ev)
}

// noteProbes counts injected probes and publishes a ProbeEvent (probe
// injection is the hot path: the count is a lock-free atomic).
func (r *RUM) noteProbes(sw string, n int) {
	r.probesSent.Add(uint64(n))
	if subs := r.subsSnapshot(); subs != nil {
		fanout(subs, ProbeEvent{Switch: sw, Count: n, At: r.cfg.Clock.Now()})
	}
}

// noteFallback counts a control-plane fallback and publishes a
// FallbackEvent.
func (r *RUM) noteFallback(u *Update) {
	r.fallbacks.Add(1)
	if subs := r.subsSnapshot(); subs != nil {
		fanout(subs, FallbackEvent{Switch: u.sw, XID: u.xid, At: r.cfg.Clock.Now()})
	}
}
