package core

import (
	"sync"
	"sync/atomic"

	"rum/internal/of"
	"rum/internal/proxy"
)

// barrierLayer restores reliable barrier semantics on top of the
// acknowledgment layer (§2, "Providing reliable barriers"): it absorbs
// every controller BarrierRequest and answers only once each modification
// issued before it is confirmed in the data plane. While a barrier is
// outstanding it also holds switch→controller traffic behind the pending
// reply (so the controller never observes post-barrier messages before the
// barrier), and — in buffer mode, for switches that reorder across
// barriers — withholds every subsequent controller command until the
// barrier resolves.
//
// Bookkeeping rides the ack layer's seq ring: because the ack layer
// assigns a monotonic seq to every forwarded FlowMod and publishes its
// contiguous confirmed prefix, a barrier is just the interval boundary
// "all seqs <= upTo" — captured as one integer when the barrier is
// absorbed and compared against the watermark on every confirmation. The
// per-xid unconfirmed/covered map churn of the map-based implementation
// is gone.
type barrierLayer struct {
	sess   *session
	buffer bool

	// ctx is the layer's proxy context, captured once from the first
	// message (contexts are per-layer singletons).
	ctx atomic.Pointer[proxy.Context]

	mu         sync.Mutex
	registered bool
	waiters    []barWaiter  // absorbed barriers, FIFO
	downQ      []of.Message // held controller→switch messages (buffer mode)
	upQ        []of.Message // held switch→controller messages
}

// barWaiter is one absorbed barrier: it resolves once the ack layer's
// confirmed prefix reaches upTo (every modification forwarded before the
// barrier carries a seq <= upTo).
type barWaiter struct {
	xid  uint32
	upTo uint64
}

func (b *barrierLayer) captureCtx(ctx *proxy.Context) {
	if b.ctx.Load() == nil {
		b.ctx.Store(ctx)
	}
}

// FromController implements proxy.Layer.
func (b *barrierLayer) FromController(ctx *proxy.Context, m of.Message) {
	b.captureCtx(ctx)
	// A barrier's interval boundary is the ack layer's issued watermark,
	// which staged (aggregated, unflushed) FlowMods have not reached yet:
	// flush before absorbing so the barrier covers them. Must happen
	// outside b.mu — a flush can confirm settled logical updates, whose
	// listeners re-enter this layer.
	if _, isBar := m.(*of.BarrierRequest); isBar && b.sess.agg != nil {
		b.sess.ack.flushAggStage()
	}
	b.mu.Lock()
	if !b.registered {
		b.registered = true
		b.sess.ack.onConfirm(b.onConfirm)
	}
	// In buffer mode every command behind an unresolved barrier waits.
	if b.buffer && len(b.waiters) > 0 {
		b.downQ = append(b.downQ, m)
		b.mu.Unlock()
		return
	}
	if mm, ok := m.(*of.BarrierRequest); ok {
		b.absorbBarrierLocked(mm)
		b.mu.Unlock()
		return
	}
	// FlowMods need no bookkeeping here: the ack layer downstream assigns
	// their seqs synchronously during ToSwitch, which is what the next
	// absorbed barrier's interval boundary reads.
	b.mu.Unlock()
	ctx.ToSwitch(m)
}

// absorbBarrierLocked registers (or immediately answers) a barrier.
func (b *barrierLayer) absorbBarrierLocked(m *of.BarrierRequest) {
	upTo := b.sess.ack.issuedThrough()
	// Direct reply only when no older barrier is still queued AND no
	// confirmation is mid-emission: the watermark advances before the
	// covered acks are serialized and before the listeners run, so
	// either an earlier waiter may be releasable-but-unreleased here, or
	// a direct reply would overtake acks the controller must see first.
	// Queueing is always safe: the emitting marker drops only once the
	// acks are out but while the listener calls are still pending, so a
	// waiter queued against either condition has a listener call coming
	// that drains every eligible waiter in order.
	if len(b.waiters) == 0 && b.sess.ack.quiescentAt(upTo) {
		// Reply directly: nothing may be pending ahead of it.
		b.reply(m.GetXID())
	} else {
		b.waiters = append(b.waiters, barWaiter{xid: m.GetXID(), upTo: upTo})
	}
	// The absorbed request goes no further. A controller conn that
	// encodes frames also decoded it into a struct nobody else holds, so
	// it returns to the codec pool (like recycleFM for tracked FlowMods).
	if b.sess.recycleAcks {
		of.Release(m)
	}
}

// reply answers an absorbed barrier on the controller channel, above the
// layer chain. On a frame-encoding conn the reply struct is RUM's again
// once the send returns and cycles through the codec pool.
func (b *barrierLayer) reply(xid uint32) {
	rep := of.AcquireBarrierReply()
	rep.SetXID(xid)
	b.sess.sendToController(rep)
	if b.sess.recycleAcks {
		of.Release(rep)
	}
}

// FromSwitch implements proxy.Layer: messages are held while a barrier
// reply is pending so the controller's view stays ordered.
func (b *barrierLayer) FromSwitch(ctx *proxy.Context, m of.Message) {
	b.captureCtx(ctx)
	b.mu.Lock()
	if len(b.waiters) > 0 && !isRUMAck(m) {
		b.upQ = append(b.upQ, m)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	ctx.ToController(m)
}

// FromSwitchBatch implements proxy.BatchLayer: the ack layer hands up the
// acks of a confirmed batch in one call, and they continue as one batch.
func (b *barrierLayer) FromSwitchBatch(ctx *proxy.Context, ms []of.Message) {
	b.captureCtx(ctx)
	b.mu.Lock()
	if len(b.waiters) > 0 {
		pass := ms[:0]
		for _, m := range ms {
			if isRUMAck(m) {
				pass = append(pass, m)
			} else {
				b.upQ = append(b.upQ, m)
			}
		}
		ms = pass
	}
	b.mu.Unlock()
	ctx.ToControllerBatch(ms)
}

// isRUMAck reports whether m is a fine-grained RUM ack. Acks bypass the
// hold behind a pending barrier reply: they are the mechanism a RUM-aware
// controller uses to make progress toward resolving the barrier.
func isRUMAck(m of.Message) bool {
	e, ok := m.(*of.Error)
	if !ok {
		return false
	}
	_, _, isAck := e.IsRUMAck()
	return isAck
}

// onConfirm receives confirmations from the ack layer (every outcome,
// including failed: a rejected modification must not wedge barriers).
func (b *barrierLayer) onConfirm(u *Update, outcome Outcome) {
	b.mu.Lock()
	b.releaseLocked()
	b.mu.Unlock()
}

// releaseLocked answers resolved barriers in order and releases held
// traffic. The head barrier gates everything: replies are emitted
// strictly in barrier order, each requiring the full confirmed prefix to
// reach its interval boundary.
func (b *barrierLayer) releaseLocked() {
	for len(b.waiters) > 0 && b.sess.ack.confirmedThrough() >= b.waiters[0].upTo {
		// Pop in place: the FIFO stays a handful of entries deep, and
		// re-slicing from the front would walk the backing array until
		// append had to reallocate it.
		xid := b.waiters[0].xid
		b.waiters = b.waiters[:copy(b.waiters, b.waiters[1:])]
		b.reply(xid)
		// Flush held switch→controller messages.
		for i, m := range b.upQ {
			b.sess.sendToController(m)
			b.upQ[i] = nil
		}
		b.upQ = b.upQ[:0]
		// In buffer mode, release held commands up to (and absorbing) the
		// next barrier.
		if b.buffer {
			b.releaseDownLocked(b.ctx.Load())
		}
	}
}

// releaseDownLocked forwards buffered commands until the next barrier (or
// the end of the buffer). It must be re-entrancy-safe: forwarding a
// FlowMod can synchronously confirm (no-wait technique) and re-enter
// onConfirm; the lock is held by the caller.
func (b *barrierLayer) releaseDownLocked(ctx *proxy.Context) {
	forwarded := false
	for len(b.downQ) > 0 && len(b.waiters) == 0 {
		m := b.downQ[0]
		b.downQ = b.downQ[1:]
		if mm, ok := m.(*of.BarrierRequest); ok {
			// As in FromController: staged FlowMods released just above
			// must reach the issued watermark before the barrier samples
			// it. forwardUnlocked's re-entrancy contract covers the
			// unlock window.
			if b.sess.agg != nil {
				b.mu.Unlock()
				b.sess.ack.flushAggStage()
				b.mu.Lock()
			}
			b.absorbBarrierLocked(mm)
			continue
		}
		b.forwardUnlocked(ctx, m)
		forwarded = true
	}
	if forwarded {
		// The released commands are a dispatch burst of this layer's own
		// making (proxy.BurstLayer): end it, so the covering barrier is
		// stamped and the outbox drained.
		b.mu.Unlock()
		b.sess.endBurst()
		b.mu.Lock()
	}
}

// forwardUnlocked sends a message toward the switch without holding the
// layer lock (the downstream ack layer may call back into onConfirm).
func (b *barrierLayer) forwardUnlocked(ctx *proxy.Context, m of.Message) {
	b.mu.Unlock()
	ctx.ToSwitch(m)
	b.mu.Lock()
}
