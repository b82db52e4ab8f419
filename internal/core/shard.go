package core

import (
	"sync"
	"sync/atomic"
	"time"

	"rum/internal/of"
)

// shard is one switch's slice of the update/ack hot path. Every attached
// switch gets its own shard — its own mutex, its own switch-bound message
// queue (the outbox), and its own ack-future watcher table — so the
// dispatch path of one switch never contends with another's and no
// RUM-wide lock is held across strategy code. Shards are created on
// demand (Watch may register futures before the switch attaches) and
// survive detach/reattach cycles; only the session binding comes and
// goes.
//
// Outbox semantics: messages bound for the switch are appended under the
// shard lock and leave in batches, drained by exactly one goroutine at a
// time (the flushing flag). Under a simulated clock the drain is a
// scheduled event (clock.After(0) — the discrete-event engine is
// single-threaded by design, so everything queued in one instant rides
// one flush). Under any other clock there is no drain goroutine: whoever
// queued the message drains. The controller conn's reader queues a whole
// read burst without draining and flushes it once at the burst's end
// (session.endBurst); every other producer — strategy timers, probes
// injected via a neighbor, the barrier layer's release — drains inline as
// it enqueues. A producer that finds a drain in progress just leaves its
// message behind: the drainer re-checks the outbox under the lock before
// it lets go of the flag. Draining never blocks — conns queue sends for
// their own writer — so enqueuing never waits on the wire. Batching is
// what makes coalescing possible: while a burst sits in the outbox,
// RUM-internal BarrierRequests collapse into the newest one, because on a
// FIFO switch a reply to a later barrier is a strictly stronger signal
// than a reply to an earlier one. The shard remembers the xids it
// swallowed and synthesizes their replies when the surviving barrier's
// reply arrives, so strategies observe every barrier they sent.
//
// Nothing here allocates at steady state: drained outbox backings are
// recycled through a spare slot, ack-future registrations chain
// intrusively through the handles themselves, and the coalesced-xid
// slices cycle through a small per-shard free list.
type shard struct {
	r    *RUM
	name string

	mu        sync.Mutex
	sess      *session // nil while the switch is detached
	gen       uint64   // bumped by close(); stale drainers bail on mismatch
	outbox    []of.Message
	obSpare   []of.Message             // recycled backing of the last drained batch
	flushing  bool                     // a flush is scheduled or a goroutine is mid-drain
	coalesced map[uint32][]uint32      // surviving RUM barrier xid → swallowed xids
	xidFree   [][]uint32               // recycled swallowed-xid slices
	watchers  map[uint32]*UpdateHandle // heads of intrusive per-xid chains
	// nWatch mirrors len(watchers) so the confirmation path skips the
	// shard lock entirely while nobody watches this switch.
	nWatch atomic.Int32

	// Overload state, live only when Config.OutboxLimit > 0. reserved
	// counts admitted tracked FlowMods not yet appended to the outbox;
	// inFlight counts the batch currently on the wire (still occupying
	// the bound until the transport returns); waiters are Block-policy
	// admitters parked until a flush frees space. drainStart/drainEWMA
	// feed the Degrade policy's slow-switch detector; degraded widens the
	// coalescing window for flushes. obHighWater records the deepest the
	// queue (outbox + in-flight batch) has ever been — the bounded-memory
	// observability hook.
	reserved    int
	inFlight    int
	waiters     []chan struct{}
	degraded    bool
	drainStart  time.Duration
	drainEWMA   time.Duration
	obHighWater int
}

// session returns the attached session, or nil while detached.
func (sh *shard) session() *session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sess
}

// bind attaches a session to the shard, reopening the outbox.
func (sh *shard) bind(s *session) {
	sh.mu.Lock()
	sh.sess = s
	sh.mu.Unlock()
}

// close detaches the shard from its session. The unflushed outbox is
// dropped — its FlowMods are still tracked by the ack layer, whose
// pending updates the detach path resolves as failed, so an in-flight
// batch fails its futures instead of wedging — and pending coalesced
// barrier bookkeeping is discarded (the replies can no longer arrive).
// A flush that fires after close observes the nil session and does
// nothing; enqueues race-free no-op until the next bind.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.sess = nil
	sh.outbox = nil
	sh.obSpare = nil
	sh.coalesced = nil
	sh.xidFree = nil
	// Reset the drain state: a flushing flag left true by a drainer of this
	// session (a scheduled flush that will now bail, a goroutine mid-send)
	// would make every enqueue after a reattach skip draining — wedging
	// the shard forever. The generation bump makes any drainer still in
	// flight from this session bail instead of touching the next
	// session's state.
	sh.flushing = false
	sh.gen++
	// Overload state dies with the session: parked Block admitters wake
	// and observe the nil session, reservations and in-flight counts are
	// void (their messages were dropped above), and the slow-switch EWMA
	// starts fresh on the next attach.
	sh.reserved, sh.inFlight = 0, 0
	sh.degraded, sh.drainEWMA = false, 0
	sh.wakeWaitersLocked()
	sh.mu.Unlock()
}

// wakeWaitersLocked releases every parked Block-policy admitter; they
// re-check the bound (or the session) under the lock.
func (sh *shard) wakeWaitersLocked() {
	if len(sh.waiters) == 0 {
		return
	}
	for _, ch := range sh.waiters {
		close(ch)
	}
	sh.waiters = nil
}

// admitUpdate reserves outbox space for one tracked controller FlowMod
// under the configured overload policy, reporting false when the update
// must be shed with ErrOverloaded instead of sent. RUM-internal traffic
// (barriers, probes, acks) never passes through here — it is bounded by
// coalescing and must not be shed, or strategies would wedge.
//
// It is called by the ack layer BEFORE the update is tracked and outside
// ackLayer.mu: the Block policy may park here, and the lock order
// ackLayer.mu → shard.mu forbids blocking once tracking has begun.
func (sh *shard) admitUpdate() bool {
	limit := sh.r.cfg.OutboxLimit
	if limit <= 0 {
		return true
	}
	policy := sh.r.cfg.Overload
	var deadline time.Time
	sh.mu.Lock()
	for {
		if sh.sess == nil {
			// Detached: the enqueue will drop the message and the detach
			// path owns failing the future — admission is not the gate.
			sh.reserved++
			sh.mu.Unlock()
			return true
		}
		if len(sh.outbox)+sh.inFlight+sh.reserved < limit {
			sh.reserved++
			sh.mu.Unlock()
			return true
		}
		// Under the discrete-event clock a Block admitter cannot wait for
		// a flush that would have to run on the same thread: Block
		// degrades to an immediate deadline expiry.
		if policy == OverloadShed || sh.r.scheduled {
			sh.mu.Unlock()
			return false
		}
		// The admitter may be the very reader whose burst filled the
		// outbox: nobody else will flush what it queued, so it drains
		// before it waits.
		if !sh.flushing && len(sh.outbox) > 0 {
			sh.startDrainLocked()
			sh.mu.Lock()
			continue
		}
		// Block (and Degrade at the bound): park until a flush completes
		// or the deadline expires. The deadline is measured across all
		// waits for this one admission.
		if deadline.IsZero() {
			deadline = time.Now().Add(sh.r.cfg.OverloadDeadline)
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			sh.mu.Unlock()
			return false
		}
		ch := make(chan struct{})
		sh.waiters = append(sh.waiters, ch)
		sh.mu.Unlock()
		t := time.NewTimer(remaining)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
		sh.mu.Lock()
	}
}

// unreserve returns an admitUpdate reservation that will not be used.
func (sh *shard) unreserve() {
	sh.mu.Lock()
	if sh.reserved > 0 {
		sh.reserved--
	}
	sh.mu.Unlock()
}

// enqueue queues session s's switch-bound message on the shard's outbox
// and makes sure it gets drained: inline by the caller, or by the drain
// already in progress. RUM-internal barriers coalesce into the queue's
// newest barrier. Messages enqueued once s is detached are dropped (their
// updates fail via the detach path). It must not be called with
// ackLayer.mu held — the drain's release accounting takes it.
func (sh *shard) enqueue(s *session, m of.Message) { sh.enqueueOpts(s, m, false, false) }

// enqueueBurst queues a message of a controller burst without draining:
// the caller guarantees a session.endBurst on the same goroutine once the
// burst is over (see proxy.BurstLayer), which flushes the whole burst in
// one batch. reserved marks a FlowMod that passed admitUpdate and consumes
// its reservation as it lands on the outbox.
func (sh *shard) enqueueBurst(s *session, m of.Message, reserved bool) {
	sh.enqueueOpts(s, m, reserved, true)
}

func (sh *shard) enqueueOpts(s *session, m of.Message, reserved, burst bool) {
	sh.mu.Lock()
	if reserved && sh.reserved > 0 {
		sh.reserved--
	}
	// A session that was detached — and possibly replaced: its readers may
	// still be unwinding a burst — must not write into its successor's
	// outbox.
	if sh.sess != s {
		sh.mu.Unlock()
		return
	}
	if br, ok := m.(*of.BarrierRequest); ok && IsRUMXID(br.GetXID()) {
		sh.coalesceBarriersLocked(br.GetXID())
	}
	sh.outbox = append(sh.outbox, m)
	if n := len(sh.outbox) + sh.inFlight; n > sh.obHighWater {
		sh.obHighWater = n
	}
	if burst && !sh.r.scheduled {
		sh.mu.Unlock()
		return
	}
	sh.startDrainLocked()
}

// drain flushes whatever the outbox holds unless a drain is already in
// progress.
func (sh *shard) drain() {
	sh.mu.Lock()
	sh.startDrainLocked()
}

// startDrainLocked makes the caller the outbox's drainer unless there is
// one already or nothing to drain. It is entered with the shard lock held
// and returns with it released.
func (sh *shard) startDrainLocked() {
	if sh.flushing || len(sh.outbox) == 0 || sh.sess == nil {
		sh.mu.Unlock()
		return
	}
	sh.flushing = true
	if sh.r.degradeOn {
		sh.drainStart = sh.r.cfg.Clock.Now()
	}
	gen := sh.gen
	switch {
	case sh.degraded:
		// Slow switch: instead of flushing immediately, let the batch sit
		// for DegradeHold so more messages — and more coalescible RUM
		// barriers — accumulate per wire write.
		sh.mu.Unlock()
		sh.r.cfg.Clock.After(sh.r.cfg.DegradeHold, func() { sh.flush(gen) })
	case sh.r.scheduled:
		sh.mu.Unlock()
		sh.r.cfg.Clock.After(0, func() { sh.flush(gen) })
	default:
		sh.flushLocked(gen)
	}
}

// getXidSliceLocked returns a recycled swallowed-xid slice.
func (sh *shard) getXidSliceLocked() []uint32 {
	if n := len(sh.xidFree); n > 0 {
		s := sh.xidFree[n-1]
		sh.xidFree[n-1] = nil
		sh.xidFree = sh.xidFree[:n-1]
		return s[:0]
	}
	return make([]uint32, 0, 8)
}

func (sh *shard) putXidSliceLocked(s []uint32) {
	if s != nil && len(sh.xidFree) < 4 {
		sh.xidFree = append(sh.xidFree, s[:0])
	}
}

// releaseCoalesced recycles a slice returned by takeCoalesced once the
// ack layer has synthesized its replies.
func (sh *shard) releaseCoalesced(xids []uint32) {
	sh.mu.Lock()
	sh.putXidSliceLocked(xids)
	sh.mu.Unlock()
}

// coalesceBarriersLocked removes every queued RUM-internal BarrierRequest
// and records their xids (plus any xids those had already swallowed)
// against the barrier about to be enqueued. Controller barriers are never
// touched: their replies belong to the controller.
func (sh *shard) coalesceBarriersLocked(keptXID uint32) {
	kept := sh.outbox[:0]
	var dropped []uint32
	for _, q := range sh.outbox {
		if br, ok := q.(*of.BarrierRequest); ok && IsRUMXID(br.GetXID()) {
			if dropped == nil {
				dropped = sh.getXidSliceLocked()
			}
			if prior := sh.coalesced[br.GetXID()]; prior != nil {
				dropped = append(dropped, prior...)
				delete(sh.coalesced, br.GetXID())
				sh.putXidSliceLocked(prior)
			}
			dropped = append(dropped, br.GetXID())
			// The swallowed barrier never reaches the wire and the outbox
			// was its only reference (strategies remember xids, not
			// structs): recycle it.
			of.Release(br)
			continue
		}
		kept = append(kept, q)
	}
	sh.outbox = kept
	if len(dropped) == 0 {
		sh.putXidSliceLocked(dropped)
		return
	}
	if sh.coalesced == nil {
		sh.coalesced = make(map[uint32][]uint32)
	}
	sh.coalesced[keptXID] = dropped
}

// flush is the entry point of a scheduled drain (simulated clock, the
// Degrade hold, the retry after transport backpressure): the flushing flag
// was raised when it was scheduled.
func (sh *shard) flush(gen uint64) {
	sh.mu.Lock()
	sh.flushLocked(gen)
}

// flushLocked drains the outbox onto the switch connection; the caller
// holds the shard lock and the flushing flag, and the lock is released on
// return. Batches are sent outside the shard lock — the flushing flag
// guarantees a single drainer per generation, so enqueues proceed
// concurrently and FIFO order holds — and the loop re-checks for messages
// enqueued while a batch was on the wire. Drained batch backings are
// handed back as the next outbox so the steady state runs on two recycled
// slices. A drainer whose generation is stale (the session detached, and
// possibly reattached, underneath it) backs out without touching the
// current generation's state.
func (sh *shard) flushLocked(gen uint64) {
	var spent []of.Message
	for {
		if sh.gen != gen {
			sh.mu.Unlock()
			return
		}
		// The previous iteration's batch (if any) has fully left through
		// the transport: its slots no longer count against the bound.
		if sh.inFlight != 0 {
			sh.inFlight = 0
			sh.wakeWaitersLocked()
		}
		if spent != nil && sh.obSpare == nil {
			sh.obSpare = spent
			spent = nil
		}
		if len(sh.outbox) == 0 || sh.sess == nil {
			sh.flushing = false
			if sh.r.degradeOn && sh.sess != nil {
				sh.noteDrainedLocked()
			}
			sh.mu.Unlock()
			return
		}
		batch := sh.outbox
		if sh.obSpare != nil {
			sh.outbox = sh.obSpare[:0]
			sh.obSpare = nil
		} else {
			sh.outbox = nil
		}
		sh.inFlight = len(batch)
		s := sh.sess
		sh.mu.Unlock()
		sent := s.sendBatchToSwitchNow(batch)
		if sent < len(batch) {
			// The transport applied backpressure mid-batch: put the unsent
			// suffix back at the head of the outbox and retry after a hold,
			// giving the paced link time to drain. The flushing flag stays
			// up — the scheduled retry owns the outbox.
			sh.requeue(batch, sent, gen, s)
			return
		}
		if s.reuseBatch {
			// The conn serialized the batch during SendBatch and retains
			// nothing; the backing array becomes the next outbox. Pipes
			// instead own the slice until delivery — hand it over.
			for i := range batch {
				batch[i] = nil
			}
			spent = batch[:0]
		}
		sh.mu.Lock()
	}
}

// noteDrainedLocked feeds the just-completed drain's latency (first
// enqueue of the burst → outbox empty) into the slow-switch EWMA and
// flips the degraded flag across the configured threshold. Only the
// Degrade policy consumes the flag; the EWMA itself is cheap enough to
// keep whenever degradeOn.
func (sh *shard) noteDrainedLocked() {
	lat := sh.r.cfg.Clock.Now() - sh.drainStart
	sh.drainEWMA += (lat - sh.drainEWMA) / 8
	sh.degraded = sh.drainEWMA > sh.r.cfg.DegradeLatency
}

// requeue prepends a partially-sent batch's unsent suffix back onto the
// outbox and schedules a delayed retry flush. Reached only via
// PartialBatchSender transports (trace-paced fault links, bounded TCP).
func (sh *shard) requeue(batch []of.Message, sent int, gen uint64, s *session) {
	rest := batch[sent:]
	sh.mu.Lock()
	if sh.gen != gen {
		sh.mu.Unlock()
		return
	}
	merged := make([]of.Message, 0, len(rest)+len(sh.outbox))
	merged = append(merged, rest...)
	merged = append(merged, sh.outbox...)
	sh.outbox = merged
	sh.inFlight = 0
	if s.reuseBatch && sh.obSpare == nil {
		for i := range batch {
			batch[i] = nil
		}
		sh.obSpare = batch[:0]
	}
	sh.mu.Unlock()
	sh.r.cfg.Clock.After(sh.r.cfg.DegradeHold, func() { sh.flush(gen) })
}

// takeCoalesced removes and returns the barrier xids swallowed into the
// barrier with the given xid (nil for barriers that swallowed none). The
// caller returns the slice via releaseCoalesced when done.
func (sh *shard) takeCoalesced(xid uint32) []uint32 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.coalesced) == 0 {
		return nil
	}
	d := sh.coalesced[xid]
	delete(sh.coalesced, xid)
	return d
}

// watch registers an ack future on the shard. Handles watching the same
// xid chain intrusively through the handles themselves, so registration
// churn allocates nothing beyond the handle.
func (sh *shard) watch(h *UpdateHandle) {
	sh.mu.Lock()
	if sh.watchers == nil {
		sh.watchers = make(map[uint32]*UpdateHandle)
	}
	h.nextWatch = sh.watchers[h.xid]
	sh.watchers[h.xid] = h
	sh.nWatch.Store(int32(len(sh.watchers)))
	sh.mu.Unlock()
}

// unwatch removes one handle's registration. A handle no longer reachable
// from the table (a resolver took its chain) is left alone — resolve on a
// cancelled handle is a no-op.
func (sh *shard) unwatch(h *UpdateHandle) {
	sh.mu.Lock()
	if cur, ok := sh.watchers[h.xid]; ok {
		switch {
		case cur == h:
			if h.nextWatch == nil {
				delete(sh.watchers, h.xid)
			} else {
				sh.watchers[h.xid] = h.nextWatch
			}
			h.nextWatch = nil
		default:
			for p := cur; p != nil; p = p.nextWatch {
				if p.nextWatch == h {
					p.nextWatch = h.nextWatch
					h.nextWatch = nil
					break
				}
			}
		}
	}
	sh.nWatch.Store(int32(len(sh.watchers)))
	sh.mu.Unlock()
}

// resolveWatch delivers a result to every handle watching its xid.
func (sh *shard) resolveWatch(res AckResult) {
	if sh.nWatch.Load() == 0 {
		return
	}
	sh.mu.Lock()
	h := sh.watchers[res.XID]
	if h != nil {
		delete(sh.watchers, res.XID)
		sh.nWatch.Store(int32(len(sh.watchers)))
	}
	sh.mu.Unlock()
	for h != nil {
		next := h.nextWatch
		h.nextWatch = nil
		h.resolve(res)
		h = next
	}
}

// failAllWatchers resolves every registered ack future as failed with
// the given typed cause (detach: a watched FlowMod may have been lost in
// flight on the closing control channel without ever being tracked, and
// its future must not wait for a switch that is gone).
func (sh *shard) failAllWatchers(now time.Duration, cause error) {
	watchers := sh.takeWatchers()
	for xid, h := range watchers {
		res := AckResult{
			Switch:      sh.name,
			XID:         xid,
			Outcome:     OutcomeFailed,
			IssuedAt:    now,
			ConfirmedAt: now,
			Err:         cause,
		}
		for h != nil {
			next := h.nextWatch
			h.nextWatch = nil
			h.resolve(res)
			h = next
		}
	}
}

// takeWatchers removes and returns every registered ack-future chain.
func (sh *shard) takeWatchers() map[uint32]*UpdateHandle {
	sh.mu.Lock()
	w := sh.watchers
	sh.watchers = nil
	sh.nWatch.Store(0)
	sh.mu.Unlock()
	return w
}
