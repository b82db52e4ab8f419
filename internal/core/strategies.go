package core

import (
	"sync"
	"time"

	"rum/internal/of"
)

// The paper's five techniques (§3) plus the no-wait lower bound register
// themselves here; Config.Technique and Config.PerSwitch select them by
// these names.
func init() {
	RegisterStrategy(string(TechBarriers), func(Config) AckStrategy {
		return &barrierStrategy{name: string(TechBarriers)}
	})
	RegisterStrategy(string(TechTimeout), func(cfg Config) AckStrategy {
		return &barrierStrategy{name: string(TechTimeout), delay: cfg.Timeout, rate: cfg.TimeoutRate}
	})
	RegisterStrategy(string(TechAdaptive), func(Config) AckStrategy {
		return adaptiveStrategy{}
	})
	RegisterStrategy(string(TechSequential), func(Config) AckStrategy {
		return newSequentialStrategy()
	})
	RegisterStrategy(string(TechGeneral), func(Config) AckStrategy {
		return newGeneralStrategy()
	})
	RegisterStrategy(string(TechNoWait), func(Config) AckStrategy {
		return noWaitStrategy{}
	})
}

// noWaitStrategy confirms instantly: no guarantees, fastest possible
// updates — the evaluation's lower bound.
type noWaitStrategy struct{}

func (noWaitStrategy) Name() string { return string(TechNoWait) }

func (noWaitStrategy) ForSwitch(sc StrategyContext) SwitchStrategy {
	return &noWaitSwitch{sc: sc}
}

type noWaitSwitch struct {
	BaseSwitchStrategy
	sc StrategyContext
}

func (t *noWaitSwitch) OnFlowMod(u *Update) { t.sc.Confirm(u, OutcomeInstalled) }

// minTimeoutHold floors the work-proportional timeout hold: below a
// millisecond a safety margin is indistinguishable from clock/timer
// granularity (wall clocks schedule at millisecond ticks) and adds no
// real conservatism.
const minTimeoutHold = time.Millisecond

// barrierStrategy implements TechBarriers (delay == 0) and TechTimeout
// (delay > 0): a RUM barrier follows the controller's FlowMods; the reply
// — plus the configured safety delay — confirms everything issued before
// it (§3.1). Barrier emission is burst-coalesced: OnFlowMod only records
// the newest sequence number, and OnBurstEnd emits the one barrier that
// covers the whole dispatch burst (semantically identical — a later
// barrier's reply confirms a superset — but K-fold cheaper on the wire
// and in the switch's control queue).
//
// With rate > 0 (Config.TimeoutRate) the safety delay after a reply is
// work-proportional: outstanding/rate, clamped to delay. The fixed delay
// models the worst case for a full table; charging it to every reply is
// what put a flat 300 ms floor under the fat-tree workload's ack-latency
// tail, when a typical coalesced burst leaves only a handful of rules
// outstanding.
type barrierStrategy struct {
	name  string
	delay time.Duration
	rate  float64
}

func (s *barrierStrategy) Name() string { return s.name }

func (s *barrierStrategy) ForSwitch(sc StrategyContext) SwitchStrategy {
	t := &barrierSwitch{sc: sc, delay: s.delay, rate: s.rate,
		retry: sc.Config().BarrierRetry, barriers: make(map[uint32]uint64)}
	t.watch = t.watchdog
	return t
}

type barrierSwitch struct {
	BaseSwitchStrategy
	sc    StrategyContext
	delay time.Duration
	rate  float64
	retry time.Duration // Config.BarrierRetry (negative: net disabled)

	watch func() // pre-bound watchdog: one allocation per switch, ever

	mu       sync.Mutex
	barriers map[uint32]uint64 // barrier xid → covered seq
	dirty    bool              // FlowMods were observed since the last emission
	maxSeq   uint64
	watching bool   // the barrier-retry watchdog timer is armed
	watchCT  uint64 // watermark at the last watchdog observation
	detached bool
}

func (t *barrierSwitch) OnFlowMod(u *Update) {
	t.mu.Lock()
	if u.Seq() > t.maxSeq {
		t.maxSeq = u.Seq()
	}
	t.dirty = true
	t.mu.Unlock()
}

// OnBurstEnd implements BurstEnder: it sends the one barrier covering
// every FlowMod observed since the last emission.
func (t *barrierSwitch) OnBurstEnd() {
	t.mu.Lock()
	if !t.dirty || t.detached {
		t.mu.Unlock()
		return
	}
	t.dirty = false
	xid := t.sc.NewXID()
	t.barriers[xid] = t.maxSeq
	t.mu.Unlock()
	br := of.AcquireBarrierRequest()
	br.SetXID(xid)
	t.sc.SendToSwitch(br)
	t.ensureWatch()
}

// Detach implements SwitchDetacher: disarm the watchdog's re-arm loop and
// drop barrier bookkeeping (the replies can no longer arrive; the detach
// path resolves the covered futures).
func (t *barrierSwitch) Detach() {
	t.mu.Lock()
	t.detached = true
	clear(t.barriers)
	t.mu.Unlock()
}

// ensureWatch arms the barrier-retry watchdog while confirmations are
// outstanding. The callback is pre-bound, so steady-state arming costs a
// timer insertion and no allocation — the zero-alloc ack path gate
// covers this code.
func (t *barrierSwitch) ensureWatch() {
	if t.retry < 0 {
		return
	}
	t.mu.Lock()
	if t.watching || t.detached {
		t.mu.Unlock()
		return
	}
	t.watching = true
	t.watchCT = t.sc.ConfirmedThrough()
	t.mu.Unlock()
	t.sc.Clock().After(t.retry, t.watch)
}

// watchdog is the liveness net for lost barriers. It is progress-based:
// a retry fires only when covered work is outstanding AND the confirmed
// watermark has not moved for a full retry interval — on a healthy
// channel under sustained load the watermark always advances between
// ticks, so the net stays silent; a stalled watermark means the barrier
// (or its reply) was lost, and a fresh barrier is emitted. A later
// barrier's reply confirms a superset, so a spurious retry is harmless
// while a missing one wedges every covered future. Confirmed
// bookkeeping is swept on the way through.
func (t *barrierSwitch) watchdog() {
	ct := t.sc.ConfirmedThrough()
	t.mu.Lock()
	if t.detached {
		t.watching = false
		t.mu.Unlock()
		return
	}
	for xid, seq := range t.barriers {
		if seq <= ct {
			delete(t.barriers, xid)
		}
	}
	if t.maxSeq <= ct {
		t.watching = false
		t.mu.Unlock()
		return
	}
	stalled := ct == t.watchCT
	t.watchCT = ct
	if !stalled {
		t.mu.Unlock()
		t.sc.Clock().After(t.retry, t.watch)
		return
	}
	xid := t.sc.NewXID()
	t.barriers[xid] = t.maxSeq
	t.mu.Unlock()
	br := of.AcquireBarrierRequest()
	br.SetXID(xid)
	t.sc.SendToSwitch(br)
	t.sc.Clock().After(t.retry, t.watch)
}

func (t *barrierSwitch) OnBarrierReply(rep *of.BarrierReply) bool {
	t.mu.Lock()
	seq, mine := t.barriers[rep.GetXID()]
	if mine {
		delete(t.barriers, rep.GetXID())
	}
	t.mu.Unlock()
	if !mine {
		return false
	}
	hold := t.delay
	if hold > 0 && t.rate > 0 {
		// Work-proportional bound: the reply proves the switch's control
		// plane reached the barrier, so what can still be missing from
		// the data plane is at most the unconfirmed backlog. Charging
		// backlog/rate keeps the per-rule conservatism of the fixed
		// worst case without taxing small bursts the full-table delay.
		hold = 0
		if ct := t.sc.ConfirmedThrough(); seq > ct {
			hold = time.Duration(float64(seq-ct) / t.rate * float64(time.Second))
		}
		if hold < minTimeoutHold {
			hold = minTimeoutHold
		}
		if hold > t.delay {
			hold = t.delay
		}
	}
	if hold == 0 {
		t.sc.ConfirmUpTo(seq, OutcomeInstalled)
	} else {
		t.sc.Clock().After(hold, func() {
			t.sc.ConfirmUpTo(seq, OutcomeInstalled)
		})
	}
	return true
}

// adaptiveStrategy implements TechAdaptive: a virtual-time model of the
// switch's installation pipeline. Each forwarded FlowMod advances the
// modeled completion time by 1/AssumedRate; with a modeled sync period the
// estimated activation rounds up to the next sync boundary. The technique
// is exactly as safe as its model — overestimate the rate and
// acknowledgments arrive before the data plane does (the paper's
// "adaptive 250" failure mode).
type adaptiveStrategy struct{}

func (adaptiveStrategy) Name() string { return string(TechAdaptive) }

func (adaptiveStrategy) ForSwitch(sc StrategyContext) SwitchStrategy {
	return &adaptiveSwitch{sc: sc}
}

type adaptiveSwitch struct {
	BaseSwitchStrategy
	sc StrategyContext

	mu sync.Mutex
	vt time.Duration // modeled control-plane completion time
}

func (t *adaptiveSwitch) OnFlowMod(u *Update) {
	cfg := t.sc.Config()
	now := t.sc.Clock().Now()
	perMod := time.Duration(float64(time.Second) / cfg.AssumedRate)
	t.mu.Lock()
	if t.vt < now {
		t.vt = now
	}
	t.vt += perMod
	est := t.vt
	t.mu.Unlock()
	if s := cfg.ModelSyncPeriod; s > 0 {
		est = ((est+s-1)/s)*s + cfg.ModelSyncSlack
	}
	// Modeled completion times are monotonic in issue order, so the
	// deadline confirms the whole prefix by seq — the timer captures no
	// Update pointer and needs no reference on the pooled struct.
	seq := u.Seq()
	t.sc.Clock().After(est-now, func() { t.sc.ConfirmUpTo(seq, OutcomeInstalled) })
}
