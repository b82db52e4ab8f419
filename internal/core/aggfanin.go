package core

import (
	"sync"

	"rum/internal/aggregate"
	"rum/internal/of"
)

// This file is the logical→physical ack fan-in of Config.Aggregate.
//
// With aggregation on, a controller FlowMod never reaches the switch
// itself: it is staged as a *logical* update, the next flush applies the
// staged batch to the session's aggregate.Table, and the resulting
// physical delta — merged covering prefixes, splits, removals — is what
// RUM tracks, journals, and sends. Each physical op carries the set of
// logical updates anchored on it (retained references in a pooled
// covered-set); when the op's data-plane confirmation arrives it fans in:
// every covered logical update whose remaining-anchor count reaches zero
// resolves with its own issue timestamp and its own command-refined
// outcome, and a physical failure fails every covered future immediately
// with the physical op's typed cause. Only physical ops occupy the seq
// ring, so barrier intervals and work-proportional timeout bounds
// (Config.TimeoutRate) automatically count physical installs.
//
// Staging coalesces one dispatch burst per aggregation batch: under a
// simulated clock the flush is a clock.After(0) callback that runs behind
// every already-queued same-instant event; under a wall clock the
// goroutine that delivered a controller burst flushes the stage when the
// burst ends (session.endBurst). Any non-FlowMod
// controller message (and any barrier absorb) flushes the stage first so
// wire order and barrier interval boundaries never observe a staged,
// unissued FlowMod.

// coveredPool recycles the covered-set backings so the aggregated hot
// path does not allocate a slice per physical op at steady state.
var coveredPool = sync.Pool{New: func() any {
	s := make([]*Update, 0, 16)
	return &s
}}

// attachCovered anchors logical update lu on physical op pu. Called with
// the ack layer's mutex held while pu is unresolved, so the resolution
// path (which reads covered outside the mutex only after winning
// takeConfirmed) never races the append.
func attachCovered(pu, lu *Update) {
	if pu.covered == nil {
		pu.covered = *(coveredPool.Get().(*[]*Update))
	}
	lu.Retain()
	pu.covered = append(pu.covered, lu)
}

// releaseCovered drops the covered set's references and returns its
// backing to the pool.
func releaseCovered(pu *Update) {
	covered := pu.covered
	pu.covered = nil
	for i, lu := range covered {
		lu.Release()
		covered[i] = nil
	}
	covered = covered[:0]
	coveredPool.Put(&covered)
}

// stageAggregate parks a tracked logical FlowMod for the next
// aggregation flush; the stage holds the update's tracking reference.
func (a *ackLayer) stageAggregate(u *Update) {
	a.mu.Lock()
	if a.closed {
		cause := a.closeCause
		a.mu.Unlock()
		a.confirmCause(u, OutcomeFailed, cause)
		u.Release()
		return
	}
	a.aggStage = append(a.aggStage, u)
	first := len(a.aggStage) == 1
	a.mu.Unlock()
	if first && a.sess.rum.scheduled {
		a.sess.clock().After(0, a.flushAggStage)
	}
}

// dropAggStage fails every staged-but-unflushed logical update with the
// detach cause (the layer is closed, so nothing is staged afterwards): the
// physical ops that would have carried them will never be issued.
func (a *ackLayer) dropAggStage() {
	a.mu.Lock()
	staged := a.aggStage
	a.aggStage = nil
	cause := a.closeCause
	a.mu.Unlock()
	for _, u := range staged {
		a.confirmCause(u, OutcomeFailed, cause)
		u.Release()
	}
}

// flushAggStage drains the staged logical batch through the aggregate
// table and issues the physical delta. The whole flush — drain, table
// mutation, seq assignment, outbox enqueue — runs in one ack-layer
// critical section so concurrent flushes cannot reorder batches against
// the logical apply order; strategy callbacks and settled confirmations
// run after the unlock, like FromController's tail.
func (a *ackLayer) flushAggStage() {
	a.mu.Lock()
	staged := a.aggStage
	a.aggStage = nil
	if len(staged) == 0 || a.closed {
		cause := a.closeCause
		a.mu.Unlock()
		for _, u := range staged {
			a.confirmCause(u, OutcomeFailed, cause)
			u.Release()
		}
		return
	}
	mods := make([]*of.FlowMod, len(staged))
	for i, u := range staged {
		mods[i] = u.fm
	}
	delta := a.sess.agg.ApplyBatch(mods)
	now := a.sess.clock().Now()
	phys := make([]*Update, len(delta.Ops))
	for i := range delta.Ops {
		op := &delta.Ops[i]
		pu := acquireUpdate(a.sess.liveStripe)
		pu.sw = a.sess.name
		pu.xid = a.sess.rum.newXID()
		op.FM.SetXID(pu.xid)
		pu.fm = op.FM
		pu.issuedAt = now
		a.nextSeq++
		pu.seq = a.nextSeq
		a.issued.Store(a.nextSeq)
		a.ringPutLocked(pu)
		if a.journalOn {
			a.journalIntent(pu)
		}
		if op.Install {
			// Index the pending install so a later batch's Covered
			// anchor can fold into it while it is still in flight.
			pu.aggRef, pu.aggTrack = op.Ref, true
			if a.aggPending == nil {
				a.aggPending = make(map[aggregate.PhysRef]*Update)
			}
			a.aggPending[op.Ref] = pu
		}
		phys[i] = pu
	}
	// Anchor each logical update on the physical ops it waits for. A
	// Covered ref whose install is no longer pending is already confirmed
	// in the data plane, so it contributes no wait; an anchor with zero
	// waits is truthfully confirmable as soon as the batch is issued.
	var settled []*Update
	for i, u := range staged {
		anc := delta.Anchors[i]
		wait := 0
		for _, idx := range anc.Ops {
			attachCovered(phys[idx], u)
			wait++
		}
		for _, ref := range anc.Covered {
			if pu, ok := a.aggPending[ref]; ok {
				attachCovered(pu, u)
				wait++
			}
		}
		if wait == 0 {
			settled = append(settled, u)
			continue
		}
		u.aggWait.Store(int32(wait))
		u.Release() // the stage's reference; the anchors hold their own
	}
	// Physical FlowMods enter the outbox inside the critical section for
	// the same reason FromController's append does: FIFO agreement with
	// any concurrent dispatch path. Whoever flushed the stage is inside a
	// dispatch burst whose end drains them.
	for i := range delta.Ops {
		a.sess.shard.enqueueBurst(a.sess, delta.Ops[i].FM, false)
	}
	a.mu.Unlock()
	for _, pu := range phys {
		a.sess.strat.OnFlowMod(pu)
		a.sess.noteFlowMod()
		pu.Release() // the tracking frame's reference
	}
	for _, u := range settled {
		a.confirmCause(u, OutcomeInstalled, nil)
		u.Release() // the stage's reference
	}
}

// aggResolvedLocked retires a resolved physical install from the
// pending-install index. Called in the same critical section that sets
// u.done, so flushAggStage's Covered lookups only ever see live ops.
func (a *ackLayer) aggResolvedLocked(u *Update) {
	if !u.aggTrack {
		return
	}
	u.aggTrack = false
	if cur := a.aggPending[u.aggRef]; cur == u {
		delete(a.aggPending, u.aggRef)
	}
}

// fanInCovered resolves the logical updates covered by a resolved
// physical op. A failed op fails every covered future immediately with
// its typed cause; a confirmed op decrements each future's
// remaining-anchor count and confirms the ones that reach zero. The
// confirmed outcome is re-derived per logical update (refineOutcome maps
// a logical deletion to OutcomeRemoved regardless of whether its last
// anchor was an install or a remove); a fallback-confirmed physical op
// propagates its weaker guarantee. Runs outside the ack-layer mutex on
// the single winning resolution path, so the covered set is drained
// exactly once.
func (a *ackLayer) fanInCovered(u *Update, outcome Outcome) {
	covered := u.covered
	u.covered = nil
	for i, lu := range covered {
		if outcome == OutcomeFailed {
			cause := u.failErr
			if cause == nil {
				cause = ErrSwitchRejected
			}
			a.confirmCause(lu, OutcomeFailed, cause)
		} else if lu.aggWait.Add(-1) == 0 {
			fan := OutcomeInstalled
			if outcome == OutcomeFallback {
				fan = OutcomeFallback
			}
			a.confirmCause(lu, fan, nil)
		}
		lu.Release()
		covered[i] = nil
	}
	covered = covered[:0]
	coveredPool.Put(&covered)
}
