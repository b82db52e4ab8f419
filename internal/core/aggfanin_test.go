package core

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/sim"
	"rum/internal/transport"
)

// captureStrategy parks every tracked update until the test resolves it
// through the StrategyContext, so fan-in tests control exactly when and
// in what order physical ops confirm or fail.
type captureStrategy struct {
	BaseSwitchStrategy
	mu  sync.Mutex
	sc  StrategyContext
	ups []*Update
}

func (cs *captureStrategy) Name() string { return "capture" }

func (cs *captureStrategy) ForSwitch(sc StrategyContext) SwitchStrategy {
	cs.sc = sc
	return cs
}

func (cs *captureStrategy) OnFlowMod(u *Update) {
	u.Retain()
	cs.mu.Lock()
	cs.ups = append(cs.ups, u)
	cs.mu.Unlock()
}

// OnUpdateResolved drops the strategy's reference however the update
// resolved (test-driven confirm, switch error, detach), keeping the
// LiveUpdates accounting exact.
func (cs *captureStrategy) OnUpdateResolved(u *Update, _ Outcome) {
	cs.mu.Lock()
	for i, v := range cs.ups {
		if v == u {
			cs.ups = append(cs.ups[:i], cs.ups[i+1:]...)
			cs.mu.Unlock()
			u.Release()
			return
		}
	}
	cs.mu.Unlock()
}

// pending snapshots the captured, still-unresolved physical updates in
// issue order, holding one reference each (caller releases).
func (cs *captureStrategy) pending() []*Update {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]*Update, len(cs.ups))
	for i, u := range cs.ups {
		u.Retain()
		out[i] = u
	}
	return out
}

// aggRig is a single-switch aggregation testbed: controller pipe → RUM
// (Aggregate on, capture strategy) → switch pipe whose far end only
// records what reaches the wire.
type aggRig struct {
	sim   *sim.Sim
	rum   *RUM
	ctrl  transport.Conn
	swEnd transport.Conn
	strat *captureStrategy
	acks  []ackEvent
	seen  []of.Message // non-ack controller-bound messages
	wire  []of.Message // switch-bound messages that reached the far end
}

func newAggRig(t *testing.T, mutate func(*Config)) *aggRig {
	t.Helper()
	s := sim.New()
	rg := &aggRig{sim: s, strat: &captureStrategy{}}
	cfg := Config{Clock: s, RUMAware: true, Aggregate: true, Strategy: rg.strat}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	rg.rum = r
	ctrlTop, ctrlBottom := transport.Pipe(s, 100*time.Microsecond)
	rumSide, swSide := transport.Pipe(s, 100*time.Microsecond)
	rg.ctrl, rg.swEnd = ctrlTop, swSide
	swSide.SetHandler(func(m of.Message) { rg.wire = append(rg.wire, m) })
	ctrlTop.SetHandler(func(m of.Message) {
		if e, ok := m.(*of.Error); ok {
			if xid, code, isAck := e.IsRUMAck(); isAck {
				rg.acks = append(rg.acks, ackEvent{sw: "s1", xid: xid, code: code, at: s.Now()})
				return
			}
		}
		rg.seen = append(rg.seen, m)
	})
	if _, err := r.AttachSwitch("s1", 1, ctrlBottom, rumSide); err != nil {
		t.Fatal(err)
	}
	return rg
}

// aggDst builds the canonical aggregation-shaped match: IPv4 DLType plus
// an NWDst prefix.
func aggDst(d byte, bits int) of.Match {
	m := of.MatchAll()
	m.Wildcards &^= of.WcDLType
	m.DLType = packet.EtherTypeIPv4
	m.SetNWDst(netip.AddrFrom4([4]byte{10, 0, 0, d}))
	m.SetNWDstWildBits(32 - bits)
	return m
}

// sendAdd watches xid, then sends a logical add for 10.0.0.d/32.
func (rg *aggRig) sendAdd(xid uint32, d byte, prio, port uint16) *UpdateHandle {
	h := rg.rum.Watch("s1", xid)
	fm := &of.FlowMod{Command: of.FCAdd, Match: aggDst(d, 32), Priority: prio,
		BufferID: of.BufferNone, OutPort: of.PortNone,
		Actions: []of.Action{of.ActionOutput{Port: port}}}
	fm.SetXID(xid)
	_ = rg.ctrl.Send(fm)
	return h
}

func (rg *aggRig) sendDelete(xid uint32, m of.Match, cmd uint16, prio uint16) *UpdateHandle {
	h := rg.rum.Watch("s1", xid)
	fm := &of.FlowMod{Command: cmd, Match: m, Priority: prio,
		BufferID: of.BufferNone, OutPort: of.PortNone}
	fm.SetXID(xid)
	_ = rg.ctrl.Send(fm)
	return h
}

func resolved(h *UpdateHandle) (AckResult, bool) { return h.Result() }

// A burst of mergeable adds lands in one aggregation batch, issues a
// single merged physical install, and its confirmation fans out to every
// logical future — with wire acks for the logical xids only.
func TestAggMergedBurstSingleInstall(t *testing.T) {
	rg := newAggRig(t, nil)
	var hs []*UpdateHandle
	for i := 0; i < 8; i++ {
		hs = append(hs, rg.sendAdd(uint32(1000+i), byte(i), 100, 3))
	}
	rg.sim.RunFor(5 * time.Millisecond)

	phys := rg.strat.pending()
	if len(phys) != 1 {
		t.Fatalf("want 1 merged physical install for the burst, got %d", len(phys))
	}
	if !IsRUMXID(phys[0].XID()) {
		t.Fatalf("physical op must carry a RUM-internal xid, got %d", phys[0].XID())
	}
	if len(rg.wire) != 1 {
		t.Fatalf("want exactly 1 FlowMod on the wire, got %d", len(rg.wire))
	}
	for _, h := range hs {
		if _, ok := resolved(h); ok {
			t.Fatal("logical future resolved before the physical install confirmed")
		}
	}

	rg.strat.sc.Confirm(phys[0], OutcomeInstalled)
	phys[0].Release()
	rg.sim.RunFor(5 * time.Millisecond)

	for i, h := range hs {
		res, ok := resolved(h)
		if !ok {
			t.Fatalf("logical future %d never resolved", i)
		}
		if res.Outcome != OutcomeInstalled || res.Err != nil {
			t.Fatalf("future %d: outcome %v err %v", i, res.Outcome, res.Err)
		}
	}
	if len(rg.acks) != 8 {
		t.Fatalf("want 8 wire acks (one per logical xid), got %d", len(rg.acks))
	}
	for _, a := range rg.acks {
		if IsRUMXID(a.xid) {
			t.Fatalf("RUM-internal xid %d leaked to the controller as an ack", a.xid)
		}
	}
	if st, ok := rg.rum.AggregationStats("s1"); !ok || st.LogicalRules != 8 || st.PhysicalRules != 1 {
		t.Fatalf("AggregationStats = %+v ok=%v, want 8 logical / 1 physical", st, ok)
	}
}

// Physical acks arriving out of issue order resolve exactly their own
// covered futures; earlier-issued logical updates stay pending until
// their own physical op confirms.
func TestAggOutOfOrderPhysicalAcks(t *testing.T) {
	rg := newAggRig(t, nil)
	var batchA, batchB []*UpdateHandle
	for i := 0; i < 4; i++ {
		batchA = append(batchA, rg.sendAdd(uint32(2000+i), byte(i), 100, 3))
	}
	rg.sim.RunFor(2 * time.Millisecond)
	for i := 0; i < 4; i++ {
		batchB = append(batchB, rg.sendAdd(uint32(2100+i), byte(16+i), 100, 5))
	}
	rg.sim.RunFor(2 * time.Millisecond)

	phys := rg.strat.pending()
	if len(phys) != 2 {
		t.Fatalf("want 2 physical installs (one per batch), got %d", len(phys))
	}
	// Confirm the second batch's install first.
	rg.strat.sc.Confirm(phys[1], OutcomeInstalled)
	rg.sim.RunFor(time.Millisecond)
	for i, h := range batchB {
		if _, ok := resolved(h); !ok {
			t.Fatalf("batch B future %d not resolved by its own physical ack", i)
		}
	}
	for i, h := range batchA {
		if _, ok := resolved(h); ok {
			t.Fatalf("batch A future %d resolved by batch B's physical ack", i)
		}
	}
	rg.strat.sc.Confirm(phys[0], OutcomeInstalled)
	rg.sim.RunFor(time.Millisecond)
	for i, h := range batchA {
		if _, ok := resolved(h); !ok {
			t.Fatalf("batch A future %d never resolved", i)
		}
	}
	phys[0].Release()
	phys[1].Release()
}

// A logical update whose rule folds into a still-in-flight physical
// install anchors on that install; both futures resolve on its single
// confirmation, each with its own issue timestamp.
func TestAggCoveredFoldsIntoPendingInstall(t *testing.T) {
	rg := newAggRig(t, nil)
	var first []*UpdateHandle
	for i := 0; i < 4; i++ {
		first = append(first, rg.sendAdd(uint32(3000+i), byte(i), 100, 3))
	}
	rg.sim.RunFor(10 * time.Millisecond)
	late := rg.sendAdd(3100, 2, 100, 3) // identical re-add, folds into the pending /30
	rg.sim.RunFor(2 * time.Millisecond)

	phys := rg.strat.pending()
	if len(phys) != 1 {
		t.Fatalf("identical re-add issued a new physical op: %d installs", len(phys))
	}
	if _, ok := resolved(late); ok {
		t.Fatal("covered future resolved while its physical install was in flight")
	}
	rg.strat.sc.Confirm(phys[0], OutcomeInstalled)
	phys[0].Release()
	rg.sim.RunFor(time.Millisecond)

	resFirst, ok := resolved(first[0])
	if !ok {
		t.Fatal("first-batch future never resolved")
	}
	resLate, ok := resolved(late)
	if !ok {
		t.Fatal("covered future never resolved")
	}
	if resLate.IssuedAt <= resFirst.IssuedAt {
		t.Fatalf("per-future issue timestamps not preserved: late %v <= first %v",
			resLate.IssuedAt, resFirst.IssuedAt)
	}
}

// A logical wildcard delete spanning several physical removes resolves
// only when ALL of them confirm, and resolves as OutcomeRemoved.
func TestAggDeleteWaitsForAllRemoves(t *testing.T) {
	rg := newAggRig(t, nil)
	h1 := rg.sendAdd(4000, 1, 100, 1)
	h2 := rg.sendAdd(4001, 2, 200, 2)
	rg.sim.RunFor(2 * time.Millisecond)
	phys := rg.strat.pending()
	if len(phys) != 2 {
		t.Fatalf("setup: want 2 physical installs, got %d", len(phys))
	}
	for _, pu := range phys {
		rg.strat.sc.Confirm(pu, OutcomeInstalled)
		pu.Release()
	}
	rg.sim.RunFor(time.Millisecond)
	if _, ok := resolved(h1); !ok {
		t.Fatal("setup add never resolved")
	}
	if _, ok := resolved(h2); !ok {
		t.Fatal("setup add never resolved")
	}

	hDel := rg.sendDelete(4100, aggDst(0, 24), of.FCDelete, 0)
	rg.sim.RunFor(2 * time.Millisecond)
	removes := rg.strat.pending()
	if len(removes) != 2 {
		t.Fatalf("want 2 physical removes for the wildcard delete, got %d", len(removes))
	}
	rg.strat.sc.Confirm(removes[0], OutcomeInstalled)
	rg.sim.RunFor(time.Millisecond)
	if _, ok := resolved(hDel); ok {
		t.Fatal("delete future resolved before every covering remove confirmed")
	}
	rg.strat.sc.Confirm(removes[1], OutcomeInstalled)
	rg.sim.RunFor(time.Millisecond)
	res, ok := resolved(hDel)
	if !ok {
		t.Fatal("delete future never resolved")
	}
	if res.Outcome != OutcomeRemoved || res.Code != of.RUMAckRemoved {
		t.Fatalf("delete resolved as %v code %#x, want removed", res.Outcome, res.Code)
	}
	removes[0].Release()
	removes[1].Release()
}

// Partial physical failure: the failed op's covered futures all fail
// with the physical rule's typed cause; futures covered by surviving ops
// still confirm. Table-driven over the failure mechanisms.
func TestAggPartialPhysicalFailure(t *testing.T) {
	cases := []struct {
		name string
		// fail injects the failure for the victim physical update.
		fail     func(rg *aggRig, victim *Update)
		want     error
		survives bool // the other physical op still confirms
	}{
		{
			name: "strategy-failed",
			fail: func(rg *aggRig, victim *Update) {
				rg.strat.sc.Confirm(victim, OutcomeFailed)
			},
			want:     ErrSwitchRejected,
			survives: true,
		},
		{
			name: "switch-error",
			fail: func(rg *aggRig, victim *Update) {
				e := &of.Error{ErrType: of.ErrTypeFlowModFailed, Code: 1}
				e.SetXID(victim.XID())
				_ = rg.swEnd.Send(e)
				rg.sim.RunFor(time.Millisecond)
			},
			want:     ErrSwitchRejected,
			survives: true,
		},
		{
			name: "detach-restarted",
			fail: func(rg *aggRig, victim *Update) {
				rg.rum.DetachSwitchCause("s1", ErrSwitchRestarted)
			},
			want:     ErrSwitchRestarted,
			survives: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rg := newAggRig(t, nil)
			// Two disjoint merge groups → two physical installs in one batch.
			var gA, gB []*UpdateHandle
			for i := 0; i < 2; i++ {
				gA = append(gA, rg.sendAdd(uint32(5000+i), byte(i), 100, 3))
				gB = append(gB, rg.sendAdd(uint32(5100+i), byte(16+i), 100, 5))
			}
			rg.sim.RunFor(2 * time.Millisecond)
			phys := rg.strat.pending()
			if len(phys) != 2 {
				t.Fatalf("want 2 physical installs, got %d", len(phys))
			}
			tc.fail(rg, phys[0])
			rg.sim.RunFor(time.Millisecond)
			for i, h := range gA {
				res, ok := resolved(h)
				if !ok {
					t.Fatalf("covered future %d not failed by the physical failure", i)
				}
				if res.Outcome != OutcomeFailed || !errors.Is(res.Err, tc.want) {
					t.Fatalf("future %d: outcome %v err %v, want failed/%v",
						i, res.Outcome, res.Err, tc.want)
				}
			}
			if tc.survives {
				rg.strat.sc.Confirm(phys[1], OutcomeInstalled)
				rg.sim.RunFor(time.Millisecond)
				for i, h := range gB {
					res, ok := resolved(h)
					if !ok || res.Outcome != OutcomeInstalled {
						t.Fatalf("surviving future %d: ok=%v res=%+v", i, ok, res)
					}
				}
			} else {
				for i, h := range gB {
					res, ok := resolved(h)
					if !ok || !errors.Is(res.Err, tc.want) {
						t.Fatalf("detached future %d: ok=%v err=%v", i, ok, res.Err)
					}
				}
			}
			phys[0].Release()
			phys[1].Release()
		})
	}
}

// DetachSwitchCause mid-aggregation — pending physical installs with
// populated covered-sets AND logical updates still staged for a flush
// that will never run — leaks no pooled updates or covered-sets:
// LiveUpdates returns to its pre-workload value.
func TestAggDetachMidAggregationNoLeak(t *testing.T) {
	base := LiveUpdates()
	rg := newAggRig(t, nil)
	var hs []*UpdateHandle
	for i := 0; i < 6; i++ {
		hs = append(hs, rg.sendAdd(uint32(6000+i), byte(i), 100, 3))
	}
	rg.sim.RunFor(2 * time.Millisecond) // flushed: physical install pending, covered-set populated

	// Stage one more logical update without letting the flush run: it
	// must be failed by the detach, not stranded.
	sess, ok := rg.rum.sessionByName("s1")
	if !ok {
		t.Fatal("session missing")
	}
	lateFM := &of.FlowMod{Command: of.FCAdd, Match: aggDst(7, 32), Priority: 100,
		BufferID: of.BufferNone, OutPort: of.PortNone,
		Actions: []of.Action{of.ActionOutput{Port: 3}}}
	lateFM.SetXID(6100)
	hLate := rg.rum.Watch("s1", 6100)
	lu := acquireUpdate(0)
	lu.sw, lu.xid, lu.fm, lu.issuedAt = "s1", 6100, lateFM, rg.sim.Now()
	sess.ack.stageAggregate(lu)

	rg.rum.DetachSwitchCause("s1", ErrSwitchRestarted)
	rg.sim.RunFor(5 * time.Millisecond) // let the orphaned flush timer fire

	for i, h := range append(hs, hLate) {
		res, ok := resolved(h)
		if !ok {
			t.Fatalf("future %d not resolved by detach", i)
		}
		if !errors.Is(res.Err, ErrSwitchRestarted) {
			t.Fatalf("future %d: cause %v, want ErrSwitchRestarted", i, res.Err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for LiveUpdates() != base {
		if time.Now().After(deadline) {
			t.Fatalf("covered-set/update leak: LiveUpdates %d != base %d", LiveUpdates(), base)
		}
		rg.sim.RunFor(time.Millisecond)
	}
}

// With the barrier layer on, a barrier following a staged aggregation
// burst is answered only after the burst's physical install confirms:
// the flush-before-absorb hook makes the barrier interval cover staged
// logical work.
func TestAggBarrierCoversStagedBurst(t *testing.T) {
	rg := newAggRig(t, func(c *Config) { c.BarrierLayer = true })
	for i := 0; i < 4; i++ {
		rg.sendAdd(uint32(7000+i), byte(i), 100, 3)
	}
	bar := &of.BarrierRequest{}
	bar.SetXID(7777)
	_ = rg.ctrl.Send(bar)
	rg.sim.RunFor(5 * time.Millisecond)

	for _, m := range rg.seen {
		if rep, ok := m.(*of.BarrierReply); ok && rep.GetXID() == 7777 {
			t.Fatal("barrier answered before the covering physical install confirmed")
		}
	}
	phys := rg.strat.pending()
	if len(phys) != 1 {
		t.Fatalf("want 1 physical install, got %d", len(phys))
	}
	rg.strat.sc.Confirm(phys[0], OutcomeInstalled)
	phys[0].Release()
	rg.sim.RunFor(5 * time.Millisecond)
	found := false
	for _, m := range rg.seen {
		if rep, ok := m.(*of.BarrierReply); ok && rep.GetXID() == 7777 {
			found = true
		}
	}
	if !found {
		t.Fatal("barrier reply never arrived after the physical confirm")
	}
}
