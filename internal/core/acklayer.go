package core

import (
	"sync"
	"sync/atomic"

	"rum/internal/aggregate"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/proxy"
)

// confirmListener observes confirmations (the barrier layer registers one).
type confirmListener func(u *Update, outcome Outcome)

// ackRingMinCap is the initial seq-ring capacity; it grows by doubling to
// the workload's high-water mark and stays there for the session.
const ackRingMinCap = 256

// emitScratch is the working set of one confirmation batch: the updates
// being resolved and the wire acks built for them. It cycles through a
// pool, so a coalesced barrier reply resolving hundreds of updates
// allocates nothing at steady state.
type emitScratch struct {
	ready []*Update
	acks  []of.Message
}

var emitPool = sync.Pool{New: func() any {
	return &emitScratch{ready: make([]*Update, 0, 64), acks: make([]of.Message, 0, 64)}
}}

// ackLayer is the acknowledgment layer (§2): it tracks every FlowMod the
// controller sends, hands it to the switch's configured AckStrategy, and —
// once the strategy proves the rule is in the data plane — emits a
// fine-grained ack to RUM-aware controllers, resolves ack futures, and
// publishes an AckEvent.
//
// Bookkeeping is O(1) per update: seq is monotonic per session, so the
// pending set is a seq-indexed ring buffer (seq s lives at ring[s&mask])
// bounded by [head, nextSeq]. Confirming a prefix is a head-pointer
// advance; an out-of-order confirmation just marks its slot done and the
// hole is reaped when the head passes it — no rescanning, ever. The head
// doubles as the published confirmed-prefix watermark the barrier layer
// and work-proportional timeout bounds read lock-free.
type ackLayer struct {
	sess *session

	// ctx is the layer's proxy context, captured from the first message
	// to cross the layer (contexts are per-layer singletons, so there is
	// nothing to re-store per message).
	ctx atomic.Pointer[proxy.Context]

	// head is the lowest unresolved seq (confirmedThrough() == head-1);
	// issued mirrors nextSeq. Both are written under mu and read
	// lock-free by the barrier layer and strategies.
	head   atomic.Uint64
	issued atomic.Uint64
	// emitting counts confirmation batches whose watermark advance is
	// published but whose acks/listeners have not finished emitting; the
	// barrier layer must not reply directly past them (see quiescentAt).
	emitting atomic.Int32

	mu        sync.Mutex
	nextSeq   uint64
	ring      []*Update // power-of-two window [head, nextSeq], one ref per slot
	wireQ     []*Update // FIFO awaiting wire-encode release (recycleFM sessions)
	wireHead  int
	listeners []confirmListener // copy-on-write; snapshots are immutable

	// closed latches at detach: a FlowMod that reaches the layer afterwards
	// (the controller conn's reader may be in the middle of a burst) fails
	// at once with closeCause instead of being tracked on a dead session.
	closed     bool
	closeCause error

	// Aggregation fan-in (Config.Aggregate; see aggfanin.go): staged
	// logical updates awaiting the next flush and the pending-install
	// index Covered anchors fold into.
	aggStage   []*Update
	aggPending map[aggregate.PhysRef]*Update

	// Intent replication (see journal.go). journalOn is latched at attach
	// from the RUM-level sink, so sessions without replication pay one
	// bool test per update. jmu is a leaf lock guarding the frame under
	// construction and its scratch buffers; it nests inside a.mu only.
	journalOn bool
	jmu       sync.Mutex
	jbuf      []byte
	jbody     []byte
	jscratch  []byte
}

func newAckLayer(s *session) *ackLayer {
	a := &ackLayer{sess: s}
	a.head.Store(1)
	return a
}

// captureCtx latches the layer's proxy context once; both directions
// share the same per-layer Context value.
func (a *ackLayer) captureCtx(ctx *proxy.Context) {
	if a.ctx.Load() == nil {
		a.ctx.Store(ctx)
	}
}

// confirmedThrough returns the contiguous confirmed seq prefix: every
// update with seq <= the returned value has resolved.
func (a *ackLayer) confirmedThrough() uint64 { return a.head.Load() - 1 }

// issuedThrough returns the newest seq handed out so far.
func (a *ackLayer) issuedThrough() uint64 { return a.issued.Load() }

// quiescentAt reports whether every update with seq <= upTo has resolved
// AND its acks have been serialized. The watermark advances under the
// mutex before acks are emitted outside it, so watermark-coverage alone
// would let a concurrently absorbed barrier reply overtake the covered
// updates' acks on the controller channel. The emitting counter is
// incremented in the same critical section as the watermark store and
// dropped once the batch's acks are out (with its listener calls still
// pending), so a zero read here means no ack-reordering window is open.
func (a *ackLayer) quiescentAt(upTo uint64) bool {
	return a.confirmedThrough() >= upTo && a.emitting.Load() == 0
}

// FromController implements proxy.Layer. The ack layer is the
// switch-nearest layer, so instead of writing to the connection directly
// it appends every switch-bound message to the session's shard outbox.
// Nothing is flushed here: the messages of one controller burst leave
// together when EndControllerBurst closes the burst.
func (a *ackLayer) FromController(ctx *proxy.Context, m of.Message) {
	a.captureCtx(ctx)
	s := a.sess
	mm, ok := m.(*of.FlowMod)
	if !ok {
		// Any non-FlowMod must not overtake staged logical FlowMods on
		// the wire (or observe a stale issued watermark): flush first.
		if s.agg != nil {
			a.flushAggStage()
		}
		s.shard.enqueueBurst(s, m, false)
		return
	}
	u := acquireUpdate(s.liveStripe)
	u.sw = s.name
	u.xid = mm.GetXID()
	u.fm = mm
	u.issuedAt = s.burstNow()
	tracked := !IsRUMXID(u.xid)
	// On sessions whose conns both encode frames, the decoded FlowMod is
	// exclusively RUM's: the wire watermark below returns it to the codec
	// pool once it has been serialized toward the switch and the update
	// has fully resolved.
	wire := s.recycleFM && tracked
	u.ownFM = wire
	// Aggregated sessions stage the logical FlowMod instead of forwarding
	// it: the flush issues the compressed physical delta and the logical
	// future resolves by fan-in from the physical acks (aggfanin.go). The
	// FlowMod never touches the wire queue — on recycling sessions the
	// decoded struct returns to the codec pool when the logical update's
	// last reference drops (the aggregate table copies what it keeps).
	// Overload admission is skipped: outbox pressure is produced by the
	// (fewer, merged) physical installs, not the logical stream.
	if s.agg != nil && tracked {
		a.stageAggregate(u)
		return
	}
	// Overload admission runs before tracking and outside a.mu: the Block
	// policy may park until the outbox drains, and a.mu must never be held
	// across a wait (noteFlushed takes it from the flush path). A refusal
	// sheds the update — tracked, resolved as failed with ErrOverloaded,
	// never enqueued.
	admitted := s.rum.overloadOn && tracked
	if admitted && !s.shard.admitUpdate() {
		s.rum.sheds.Add(1)
		a.refuse(u, ErrOverloaded)
		return
	}
	a.mu.Lock()
	if a.closed {
		cause := a.closeCause
		a.mu.Unlock()
		if admitted {
			s.shard.unreserve()
		}
		a.confirmCause(u, OutcomeFailed, cause)
		u.Release() // the tracking frame's reference
		return
	}
	a.nextSeq++
	u.seq = a.nextSeq
	a.issued.Store(a.nextSeq)
	a.ringPutLocked(u)
	if a.journalOn {
		a.journalIntent(u)
	}
	if wire {
		u.Retain() // wire reference, dropped by noteFlushed after encoding
		a.wireQ = append(a.wireQ, u)
	}
	// The outbox append stays inside the critical section: noteFlushed
	// pairs wire-queue entries with encoded FlowMods purely by FIFO
	// position, so the two queues must observe the same order even when
	// dispatch paths race (buffer-mode barrier release runs concurrently
	// with the controller reader). Lock order is ackLayer.mu → shard.mu,
	// never reversed (a drain calls noteFlushed after dropping the shard
	// lock, and nothing drains while holding ackLayer.mu), and the append
	// never blocks (admission already happened above).
	s.shard.enqueueBurst(s, m, admitted)
	a.mu.Unlock()
	s.strat.OnFlowMod(u)
	s.noteFlowMod()
	u.Release() // the tracking frame's reference
}

// EndControllerBurst implements proxy.BurstLayer: the goroutine that
// delivered a burst of controller messages finishes it.
func (a *ackLayer) EndControllerBurst(*proxy.Context) { a.sess.endBurst() }

// refuse resolves a tracked-but-never-sent update as failed with the given
// cause through the normal emission machinery — the future, the AckEvent
// stream, and strategy listeners all observe it — without the FlowMod
// ever touching the outbox. The switch's FIB is untouched, so the caller
// may back off and re-issue.
func (a *ackLayer) refuse(u *Update, cause error) {
	a.mu.Lock()
	a.nextSeq++
	u.seq = a.nextSeq
	a.issued.Store(a.nextSeq)
	a.ringPutLocked(u)
	a.mu.Unlock()
	a.confirmCause(u, OutcomeFailed, cause)
	u.Release() // the tracking frame's reference
}

// close latches the layer shut at detach; see the closed field.
func (a *ackLayer) close(cause error) {
	a.mu.Lock()
	a.closed, a.closeCause = true, cause
	a.mu.Unlock()
}

// ringPutLocked places u at its seq slot, growing (and rehashing) the
// ring when the pending window outgrows it. The slot holds one reference.
func (a *ackLayer) ringPutLocked(u *Update) {
	h := a.head.Load()
	if n := uint64(len(a.ring)); n == 0 || u.seq-h+1 > n {
		need := u.seq - h + 1
		grown := uint64(ackRingMinCap)
		for grown < need {
			grown <<= 1
		}
		nr := make([]*Update, grown)
		for s := h; s < u.seq; s++ {
			nr[s&(grown-1)] = a.ring[s&uint64(len(a.ring)-1)]
		}
		a.ring = nr
	}
	a.ring[u.seq&uint64(len(a.ring)-1)] = u
	u.Retain()
}

// reapLocked advances the head past resolved updates, clearing their
// slots and dropping the slots' references. Out-of-order confirmations
// leave done holes behind the head; this is where they are collected.
func (a *ackLayer) reapLocked() {
	h := a.head.Load()
	mask := uint64(len(a.ring) - 1)
	for h <= a.nextSeq {
		u := a.ring[h&mask]
		if !u.done {
			break
		}
		a.ring[h&mask] = nil
		h++
		u.Release()
	}
	a.head.Store(h)
}

// noteFlushed reports that the shard encoded n tracked FlowMods onto the
// wire (FIFO, so they are exactly the next n wire-queue entries); their
// wire references drop, letting fully-resolved updates recycle their
// decoded FlowMods back to the codec pool.
func (a *ackLayer) noteFlushed(n int) {
	a.mu.Lock()
	for ; n > 0 && a.wireHead < len(a.wireQ); n-- {
		u := a.wireQ[a.wireHead]
		a.wireQ[a.wireHead] = nil
		a.wireHead++
		u.Release()
	}
	if a.wireHead == len(a.wireQ) {
		a.wireQ = a.wireQ[:0]
		a.wireHead = 0
	}
	a.mu.Unlock()
}

// releaseWire drops the wire references of updates still queued for
// encoding when the session detaches: the shard dropped its outbox, so
// noteFlushed will never pop them. Their decoded FlowMods are handed to
// the garbage collector instead of the codec pool (ownFM is cleared
// first) — a flush already in flight may still be serializing the
// structs, so recycling them here would hand the encoder a reused
// buffer. Detach is cold; the pool just misses.
func (a *ackLayer) releaseWire() {
	a.mu.Lock()
	for ; a.wireHead < len(a.wireQ); a.wireHead++ {
		u := a.wireQ[a.wireHead]
		a.wireQ[a.wireHead] = nil
		u.ownFM = false
		u.Release()
	}
	a.wireQ = a.wireQ[:0]
	a.wireHead = 0
	a.mu.Unlock()
}

// FromSwitch implements proxy.Layer: barrier replies and probe PacketIns
// are offered to the strategy (and, for probes, to every cross-switch
// probe-routing deployment); switch errors fail their pending update; and
// replies to RUM-internal messages are suppressed. Everything else passes
// through.
func (a *ackLayer) FromSwitch(ctx *proxy.Context, m of.Message) {
	a.captureCtx(ctx)
	switch mm := m.(type) {
	case *of.BarrierReply:
		// A reply to a barrier that swallowed earlier RUM barriers in the
		// shard's outbox stands in for all of them (a later barrier's
		// reply is the stronger signal); synthesize the swallowed replies
		// so strategies observe every barrier they emitted, oldest first.
		// Synthesized replies live exactly for the strategy callback, so
		// they cycle through the codec pool.
		if dropped := a.sess.shard.takeCoalesced(mm.GetXID()); dropped != nil {
			for _, dx := range dropped {
				synth := of.AcquireBarrierReply()
				synth.SetXID(dx)
				a.sess.strat.OnBarrierReply(synth)
				of.Release(synth)
			}
			a.sess.shard.releaseCoalesced(dropped)
		}
		if a.sess.strat.OnBarrierReply(mm) {
			// Strategies only ever claim replies to their own barriers:
			// the reply is consumed here, was never forwarded, and no one
			// upstream retains it (switches reply-and-forget, strategies
			// keep xids, not pointers) — recycle it.
			of.Release(mm)
			return
		}
	case *of.PacketIn:
		if pkt, err := packet.Unmarshal(mm.Data); err == nil {
			if a.sess.strat.OnProbe(mm, pkt.Fields) {
				return
			}
			if a.sess.rum.routeProbe(a.sess.name, mm, pkt.Fields) {
				return
			}
		}
	case *of.Error:
		// A genuine switch error for a tracked FlowMod resolves it as
		// failed; the error itself still reaches the controller below.
		if _, _, isAck := mm.IsRUMAck(); !isAck && errorBlamesFlowMod(mm) {
			a.failByXID(mm.GetXID())
		}
	}
	// Suppress replies to RUM-generated messages that the strategy did
	// not claim (errors for probe rules, stray barrier replies). This is
	// their final consumption point, so poolable ones are recycled;
	// PacketIns are exempt from both the suppression and the release —
	// probe handling may retain them.
	if IsRUMXID(m.GetXID()) && m.MsgType() != of.TypePacketIn {
		of.Release(m)
		return
	}
	ctx.ToController(m)
}

// onConfirm registers a confirmation listener. The listener slice is
// copy-on-write: emitters publish resolutions against an immutable
// snapshot without copying per confirmation.
func (a *ackLayer) onConfirm(fn confirmListener) {
	a.mu.Lock()
	ls := make([]confirmListener, len(a.listeners)+1)
	copy(ls, a.listeners)
	ls[len(ls)-1] = fn
	a.listeners = ls
	a.mu.Unlock()
}

// takeConfirmed atomically marks u resolved; it reports false when u was
// already resolved, and returns the resources needed to emit the
// resolution. A non-nil cause records the typed failure reason
// (ErrChannelLost, ErrSwitchRestarted, ErrSwitchRejected) under the same
// critical section that settles the done flag, so racing resolvers never
// observe a half-written cause. On success the caller inherits one
// reference to u (the emission reference) and must Release it after
// emitting.
func (a *ackLayer) takeConfirmed(u *Update, cause error) (ctx *proxy.Context, listeners []confirmListener, ok bool) {
	a.mu.Lock()
	if u.done {
		a.mu.Unlock()
		return nil, nil, false
	}
	u.done = true
	u.failErr = cause
	a.aggResolvedLocked(u)
	u.Retain()        // emission reference
	a.emitting.Add(1) // dropped by finishBatch
	if u.seq == a.head.Load() {
		a.reapLocked()
	}
	listeners = a.listeners
	a.mu.Unlock()
	return a.ctx.Load(), listeners, true
}

// confirm resolves u with the given outcome: it emits the wire-level ack
// to RUM-aware controllers (fallback included, failed excluded), resolves
// ack futures, publishes an AckEvent, and notifies listeners.
func (a *ackLayer) confirm(u *Update, outcome Outcome) {
	a.confirmCause(u, outcome, nil)
}

// confirmCause is confirm with a typed failure cause attached to the
// resolution (detach, switch errors); AckResult.Err carries it. It is a
// confirmation batch of one.
func (a *ackLayer) confirmCause(u *Update, outcome Outcome, cause error) {
	ctx, listeners, ok := a.takeConfirmed(u, cause)
	if !ok {
		return
	}
	sc := emitPool.Get().(*emitScratch)
	sc.ready = append(sc.ready[:0], u) // the emission reference rides along
	a.finishBatch(ctx, listeners, sc, outcome)
}

// refineOutcome maps a prefix-confirmed deletion to "removed":
// order-preserving strategies confirm deletions as OutcomeInstalled.
func refineOutcome(u *Update, outcome Outcome) Outcome {
	if outcome == OutcomeInstalled &&
		(u.fm.Command == of.FCDelete || u.fm.Command == of.FCDeleteStrict) {
		return OutcomeRemoved
	}
	return outcome
}

// finishBatch emits the resolutions of sc.ready — updates already marked
// done under one raised emitting marker, each carrying a reference that is
// dropped here — then notifies the confirmation listeners.
func (a *ackLayer) finishBatch(ctx *proxy.Context, listeners []confirmListener, sc *emitScratch, outcome Outcome) {
	ready := sc.ready
	if len(ready) > 0 {
		// Every ack of the batch is emitted before any listener runs: the
		// confirmed-prefix watermark already covers the whole batch, so a
		// listener poked mid-batch (the barrier layer) would release a
		// barrier reply ahead of the remaining — already confirmed, not
		// yet emitted — acks, reordering the controller's view.
		a.emitBatch(ctx, sc, outcome)
		// Drop the emission marker after the acks are serialized but
		// BEFORE the listeners run: a barrier queued while the marker was
		// up is then guaranteed a still-pending listener call to drain it.
		a.emitting.Add(-1)
	}
	if len(listeners) > 0 {
		for _, u := range ready {
			refined := refineOutcome(u, outcome)
			for _, fn := range listeners {
				fn(u, refined)
			}
		}
	}
	if a.journalOn && len(ready) > 0 {
		a.journalDeliver()
	}
	for i, u := range ready {
		u.Release()
		ready[i] = nil
	}
	sc.ready = ready[:0]
	emitPool.Put(sc)
}

// emitBatch performs the lock-free tail of a confirmation for a batch of
// updates already marked done. The process-wide state is touched once per
// batch, not once per update: one clock read, one subscriber snapshot, one
// xid block for the wire acks, one ack-counter update — and on a
// controller conn that encodes frames the acks ride up the layer chain
// and onto the conn as one batch. A conn that passes message structs by
// pointer keeps what it is given, so there each ack is sent on its own,
// at its update's position in the batch.
func (a *ackLayer) emitBatch(ctx *proxy.Context, sc *emitScratch, outcome Outcome) {
	s := a.sess
	r := s.rum
	now := s.clock().Now()
	subs := r.subsSnapshot()
	wire := r.cfg.RUMAware && ctx != nil
	var ackXID uint32
	if wire {
		// One xid per update is at most what the acks below consume;
		// unused ids of the block are simply skipped.
		ackXID = r.newXIDs(uint32(len(sc.ready)))
	}
	acks := sc.acks[:0]
	sent := 0
	for _, u := range sc.ready {
		refined := refineOutcome(u, outcome)
		if a.journalOn {
			a.journalResolve(u)
		}
		code, hasWire := refined.wireCode()
		// Physical aggregation ops carry RUM-internal xids the controller
		// never issued; their resolutions fan in to the covered logical
		// updates below instead of acking on the wire.
		if wire && hasWire && !IsRUMXID(u.xid) {
			ack := of.AcquireError()
			of.FillRUMAck(ack, u.xid, code)
			ack.SetXID(ackXID)
			ackXID++
			sent++
			if s.recycleAcks {
				acks = append(acks, ack)
			} else {
				ctx.ToController(ack)
			}
		}
		if s.shard.nWatch.Load() != 0 {
			s.shard.resolveWatch(AckResult{
				Switch:      u.sw,
				XID:         u.xid,
				Outcome:     refined,
				Code:        code,
				IssuedAt:    u.issuedAt,
				ConfirmedAt: now,
				Latency:     now - u.issuedAt,
				Err:         u.failErr,
			})
		}
		// Only box the event when someone is listening: the interface
		// conversion heap-allocates, and this is the per-update hot path.
		if subs != nil {
			fanout(subs, AckEvent{
				Switch:   u.sw,
				XID:      u.xid,
				Outcome:  refined,
				Code:     code,
				IssuedAt: u.issuedAt,
				At:       now,
				Latency:  now - u.issuedAt,
				Err:      u.failErr,
			})
		}
		// Let the strategy drop per-update state for resolutions it did not
		// initiate (switch errors, detach) — a failed update's probe must not
		// clog the probe pump forever.
		if s.resolved != nil {
			s.resolved.OnUpdateResolved(u, refined)
		}
		// A physical op's resolution fans in to the logical futures it
		// covers (Config.Aggregate): confirm the fully-anchored ones, fail
		// all of them on a typed physical failure.
		if u.covered != nil {
			a.fanInCovered(u, refined)
		}
	}
	if len(acks) > 0 {
		// The barrier layer passes RUM acks straight through and the
		// controller conn serializes them during the send, so RUM is their
		// sole owner again afterwards.
		ctx.ToControllerBatch(acks)
		for i, m := range acks {
			of.Release(m)
			acks[i] = nil
		}
	}
	sc.acks = acks[:0]
	if sent > 0 {
		r.acksSent.Add(uint64(sent))
	}
}

// confirmUpTo confirms every pending mod with seq <= seq (order-preserving
// strategies: barriers, timeout, adaptive, sequential). The whole prefix
// is a single head-pointer advance under the lock — with coalesced
// barriers one reply routinely resolves a large batch, and the cost is
// O(batch), independent of how many further updates are pending.
func (a *ackLayer) confirmUpTo(seq uint64, outcome Outcome) {
	sc := emitPool.Get().(*emitScratch)
	ready := sc.ready[:0]
	a.mu.Lock()
	if len(a.ring) > 0 {
		if seq > a.nextSeq {
			seq = a.nextSeq
		}
		mask := uint64(len(a.ring) - 1)
		h := a.head.Load()
		for ; h <= seq; h++ {
			u := a.ring[h&mask]
			a.ring[h&mask] = nil
			if u.done {
				// Confirmed out of order earlier; its resolution was
				// already emitted — the slot reference just dies here.
				u.Release()
				continue
			}
			u.done = true
			a.aggResolvedLocked(u)
			ready = append(ready, u) // slot reference rides along
		}
		if len(ready) > 0 {
			a.emitting.Add(1) // one batch; dropped by finishBatch
		}
		a.head.Store(h)
		a.reapLocked() // collect trailing out-of-order holes
	}
	listeners := a.listeners
	a.mu.Unlock()
	sc.ready = ready
	a.finishBatch(a.ctx.Load(), listeners, sc, outcome)
}

// errorBlamesFlowMod reports whether a switch error can be attributed to
// a FlowMod: flow-mod-failed errors always are; otherwise the error's
// echoed offending-message header decides. A payload too short to carry
// the header is NOT attributed — an xid collision with another message
// type must never mark a healthy update failed (a missed failure merely
// leaves the update to its strategy; a false failure discards the
// eventual genuine confirmation).
func errorBlamesFlowMod(e *of.Error) bool {
	if e.ErrType == of.ErrTypeFlowModFailed {
		return true
	}
	return len(e.Data) >= 2 && of.MsgType(e.Data[1]) == of.TypeFlowMod
}

// takePendingRetained snapshots the unresolved updates in issue order,
// holding one reference each; the caller must Release them (detach).
func (a *ackLayer) takePendingRetained() []*Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*Update
	if len(a.ring) == 0 {
		return nil
	}
	mask := uint64(len(a.ring) - 1)
	for s := a.head.Load(); s <= a.nextSeq; s++ {
		if u := a.ring[s&mask]; u != nil && !u.done {
			u.Retain()
			out = append(out, u)
		}
	}
	return out
}

// pendingCount reports how many updates are unresolved (tests).
func (a *ackLayer) pendingCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.ring) == 0 {
		return 0
	}
	n := 0
	mask := uint64(len(a.ring) - 1)
	for s := a.head.Load(); s <= a.nextSeq; s++ {
		if u := a.ring[s&mask]; u != nil && !u.done {
			n++
		}
	}
	return n
}

// failByXID resolves the pending update with the given controller xid as
// failed, if one exists. Errors are rare, so the linear walk over the
// pending window stays off the hot path.
func (a *ackLayer) failByXID(xid uint32) {
	a.mu.Lock()
	var victim *Update
	if len(a.ring) > 0 {
		mask := uint64(len(a.ring) - 1)
		for s := a.head.Load(); s <= a.nextSeq; s++ {
			if u := a.ring[s&mask]; u != nil && u.xid == xid && !u.done {
				victim = u
				victim.Retain()
				break
			}
		}
	}
	a.mu.Unlock()
	if victim != nil {
		a.confirmCause(victim, OutcomeFailed, ErrSwitchRejected)
		victim.Release()
	}
}
