package core

import (
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// shardBed is a minimal single-switch harness below the netsim layer: a
// RUM instance proxying one switch whose control channel ends in a
// scripted echo handler, so tests can observe exactly which messages the
// shard put on the wire.
type shardBed struct {
	sim      *sim.Sim
	rum      *RUM
	ctrl     transport.Conn // controller side
	swPeer   transport.Conn // the "switch": receives what RUM sends
	toSwitch []of.Message   // everything the switch received
	barriers int            // BarrierRequests among them
	echo     bool           // reply to barriers automatically
}

func newShardBed(t *testing.T, cfg Config, latency time.Duration) *shardBed {
	t.Helper()
	s := sim.New()
	cfg.Clock = s
	r, err := New(cfg, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	bed := &shardBed{sim: s, rum: r, echo: true}
	ctrlTop, ctrlBottom := transport.Pipe(s, latency)
	rumSide, swSide := transport.Pipe(s, latency)
	bed.ctrl = ctrlTop
	bed.swPeer = swSide
	swSide.SetHandler(func(m of.Message) {
		bed.toSwitch = append(bed.toSwitch, m)
		if br, ok := m.(*of.BarrierRequest); ok {
			bed.barriers++
			if bed.echo {
				rep := of.AcquireBarrierReply()
				rep.SetXID(br.GetXID())
				_ = swSide.Send(rep)
			}
		}
	})
	ctrlTop.SetHandler(func(of.Message) {})
	if _, err := r.AttachSwitch("s1", 1, ctrlBottom, rumSide); err != nil {
		t.Fatal(err)
	}
	return bed
}

func testFlowMod(xid uint32) *of.FlowMod {
	fm := &of.FlowMod{Command: of.FCAdd, Priority: 100, Match: of.MatchAll(),
		BufferID: of.BufferNone, OutPort: of.PortNone,
		Actions: []of.Action{of.ActionOutput{Port: 1}}}
	fm.SetXID(xid)
	return fm
}

// TestShardCoalescesBarriers: a burst of FlowMods under the barriers
// technique used to put one BarrierRequest per FlowMod on the wire; the
// shard's outbox collapses them into the newest barrier and synthesizes
// the swallowed replies, so every update still confirms.
func TestShardCoalescesBarriers(t *testing.T) {
	bed := newShardBed(t, Config{Technique: TechBarriers, RUMAware: true}, 0)
	const n = 8
	var handles []*UpdateHandle
	for i := uint32(1); i <= n; i++ {
		handles = append(handles, bed.rum.Watch("s1", i))
		if err := bed.ctrl.Send(testFlowMod(i)); err != nil {
			t.Fatal(err)
		}
	}
	bed.sim.Run()
	for i, h := range handles {
		res, ok := h.Result()
		if !ok || res.Outcome != OutcomeInstalled {
			t.Fatalf("update %d: resolved=%v outcome=%v, want installed", i+1, ok, res.Outcome)
		}
	}
	mods := 0
	for _, m := range bed.toSwitch {
		if _, ok := m.(*of.FlowMod); ok {
			mods++
		}
	}
	if mods != n {
		t.Fatalf("switch received %d FlowMods, want %d", mods, n)
	}
	if bed.barriers != 1 {
		t.Fatalf("switch received %d BarrierRequests for a %d-mod burst, want 1 (coalesced)", bed.barriers, n)
	}
}

// TestDetachFailsInFlightBatch is the regression test for detach racing
// a batched injection: FlowMods sitting in the shard's outbox (tracked,
// not yet flushed to the switch) must resolve their futures as failed
// when the switch detaches — and the orphaned flush must no-op instead
// of deadlocking or sending on a closed session.
func TestDetachFailsInFlightBatch(t *testing.T) {
	bed := newShardBed(t, Config{Technique: TechBarriers, RUMAware: true}, time.Millisecond)
	const n = 4
	var handles []*UpdateHandle
	for i := uint32(1); i <= n; i++ {
		handles = append(handles, bed.rum.Watch("s1", i))
		if err := bed.ctrl.Send(testFlowMod(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Step the simulator just far enough to deliver the FlowMods into the
	// ack layer (filling the shard's outbox) without running the flush
	// callback that would put the batch on the wire.
	sess, ok := bed.rum.sessionByName("s1")
	if !ok {
		t.Fatal("s1 not attached")
	}
	for sess.ack.pendingCount() < n {
		if !bed.sim.Step() {
			t.Fatal("simulation drained before the batch was tracked")
		}
	}
	sess.shard.mu.Lock()
	queued := len(sess.shard.outbox)
	sess.shard.mu.Unlock()
	if queued == 0 {
		t.Fatal("outbox empty: batch was already flushed, test is not exercising the race")
	}
	if !bed.rum.DetachSwitch("s1") {
		t.Fatal("DetachSwitch(s1) reported not attached")
	}
	// Futures must already be resolved as failed — not wedged waiting for
	// a flush that can never complete.
	for i, h := range handles {
		res, ok := h.Result()
		if !ok {
			t.Fatalf("update %d future unresolved after detach", i+1)
		}
		if res.Outcome != OutcomeFailed {
			t.Fatalf("update %d outcome %v after detach, want failed", i+1, res.Outcome)
		}
	}
	// The orphaned flush callback and any stragglers must drain cleanly.
	bed.sim.Run()
	for _, m := range bed.toSwitch {
		if _, ok := m.(*of.FlowMod); ok {
			t.Fatal("a batched FlowMod reached the switch after detach")
		}
	}
	// The shard is reusable: a reattach under the same name works and
	// confirms new updates.
	ctrlTop, ctrlBottom := transport.Pipe(bed.sim, 0)
	rumSide, swSide := transport.Pipe(bed.sim, 0)
	swSide.SetHandler(func(m of.Message) {
		if br, ok := m.(*of.BarrierRequest); ok {
			rep := of.AcquireBarrierReply()
			rep.SetXID(br.GetXID())
			_ = swSide.Send(rep)
		}
	})
	ctrlTop.SetHandler(func(of.Message) {})
	if _, err := bed.rum.AttachSwitch("s1", 1, ctrlBottom, rumSide); err != nil {
		t.Fatalf("reattach after detach: %v", err)
	}
	h := bed.rum.Watch("s1", 99)
	if err := ctrlTop.Send(testFlowMod(99)); err != nil {
		t.Fatal(err)
	}
	bed.sim.Run()
	if res, ok := h.Result(); !ok || res.Outcome != OutcomeInstalled {
		t.Fatalf("post-reattach update: resolved=%v outcome=%v, want installed", ok, res.Outcome)
	}
	// The failed updates went back to the pool; re-using their exact xids
	// on the fresh session must resolve cleanly through recycled structs
	// (and must not disturb the already-failed futures).
	var reused []*UpdateHandle
	for i := uint32(1); i <= n; i++ {
		reused = append(reused, bed.rum.Watch("s1", i))
		if err := ctrlTop.Send(testFlowMod(i)); err != nil {
			t.Fatal(err)
		}
	}
	bed.sim.Run()
	for i, h := range reused {
		res, ok := h.Result()
		if !ok || res.Outcome != OutcomeInstalled {
			t.Fatalf("recycled xid %d: resolved=%v outcome=%v, want installed", i+1, ok, res.Outcome)
		}
	}
	for i, h := range handles {
		if res, _ := h.Result(); res.Outcome != OutcomeFailed {
			t.Fatalf("detached update %d outcome flipped to %v after xid reuse", i+1, res.Outcome)
		}
	}
}
