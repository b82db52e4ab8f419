package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rum/internal/faults"
	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// TestMixedStrategyChurn32Switches drives one RUM deployment with 32
// switches running a PerSwitch mix of all five resolving techniques
// under genuinely concurrent churn on a wall clock — one driver
// goroutine per switch, every message crossing timer goroutines. With
// the race detector on, this is the sharded hot path's concurrency
// certification: per-shard state, xid allocation, watch futures, event
// fanout, and the coalesced-barrier bookkeeping all run in parallel.
//
// The general-probing switches are deliberately left unbootstrapped (no
// topology), which forces their control-plane fallback path — so the
// test also mixes outcome flavors, not just techniques.
func TestMixedStrategyChurn32Switches(t *testing.T) {
	const (
		nSwitches = 32
		nUpdates  = 20
	)
	techs := []Technique{TechBarriers, TechTimeout, TechAdaptive, TechGeneral, TechNoWait}

	clk := sim.NewWall()
	perSwitch := make(map[string]Technique)
	swTech := make(map[string]Technique)
	names := make([]string, nSwitches)
	for i := range names {
		names[i] = fmt.Sprintf("sw%02d", i)
		perSwitch[names[i]] = techs[i%len(techs)]
		swTech[names[i]] = techs[i%len(techs)]
	}
	r, err := New(Config{
		Clock:       clk,
		Technique:   TechBarriers,
		PerSwitch:   perSwitch,
		RUMAware:    true,
		Timeout:     2 * time.Millisecond, // timeout technique + general fallback delay
		AssumedRate: 50000,                // adaptive: 20µs modeled per mod
	}, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}

	sub := r.Subscribe(nSwitches * nUpdates)
	defer sub.Close()

	ctrls := make(map[string]transport.Conn, nSwitches)
	for _, name := range names {
		ctrlTop, ctrlBottom := transport.Pipe(clk, 0)
		rumSide, swSide := transport.Pipe(clk, 0)
		// Echo switch: answer every barrier instantly.
		swSide.SetHandler(func(m of.Message) {
			if br, ok := m.(*of.BarrierRequest); ok {
				rep := of.AcquireBarrierReply()
				rep.SetXID(br.GetXID())
				_ = swSide.Send(rep)
			}
		})
		ctrlTop.SetHandler(func(of.Message) {})
		if _, err := r.AttachSwitch(name, 1, ctrlBottom, rumSide); err != nil {
			t.Fatal(err)
		}
		ctrls[name] = ctrlTop
	}

	type outcome struct {
		sw  string
		res AckResult
	}
	results := make(chan outcome, nSwitches*nUpdates)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(swIdx int, sw string) {
			defer wg.Done()
			conn := ctrls[sw]
			var handles []*UpdateHandle
			for u := 0; u < nUpdates; u++ {
				xid := uint32(swIdx*1000 + u + 1)
				handles = append(handles, r.Watch(sw, xid))
				if err := conn.Send(testFlowMod(xid)); err != nil {
					t.Errorf("%s: send: %v", sw, err)
					return
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for _, h := range handles {
				res, err := h.AwaitAck(ctx)
				if err != nil {
					t.Errorf("%s xid %d: ack never arrived: %v", sw, h.XID(), err)
					return
				}
				results <- outcome{sw: sw, res: res}
			}
		}(i, name)
	}
	wg.Wait()
	close(results)

	counts := make(map[Outcome]int)
	for o := range results {
		counts[o.res.Outcome]++
		want := OutcomeInstalled
		if swTech[o.sw] == TechGeneral {
			// Unbootstrapped general probing falls back to the control
			// plane: weaker guarantee, distinct outcome.
			want = OutcomeFallback
		}
		if o.res.Outcome != want {
			t.Fatalf("%s (technique %s) xid %d resolved %v, want %v",
				o.sw, swTech[o.sw], o.res.XID, o.res.Outcome, want)
		}
		if o.res.Latency < 0 {
			t.Fatalf("%s xid %d negative latency %v", o.sw, o.res.XID, o.res.Latency)
		}
	}
	total := counts[OutcomeInstalled] + counts[OutcomeFallback]
	if total != nSwitches*nUpdates {
		t.Fatalf("resolved %d updates, want %d", total, nSwitches*nUpdates)
	}
	if counts[OutcomeFallback] == 0 {
		t.Fatal("no fallback outcomes: the general-probing switches did not exercise their path")
	}

	acks, _, fallbacks := r.Stats()
	if acks != uint64(nSwitches*nUpdates) {
		t.Fatalf("Stats reports %d acks, want %d", acks, nSwitches*nUpdates)
	}
	if fallbacks == 0 {
		t.Fatal("Stats reports zero fallbacks despite general-probing switches")
	}
}

// TestWallClockDetachReattach cycles a wall-clock (inline-drain) switch
// through detach-during-churn and reattach: the new session's shard must
// flush normally — a drain flag stranded by the old session's drainer
// would wedge every post-reattach update forever.
func TestWallClockDetachReattach(t *testing.T) {
	clk := sim.NewWall()
	r, err := New(Config{Clock: clk, Technique: TechBarriers}, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	attach := func() transport.Conn {
		ctrlTop, ctrlBottom := transport.Pipe(clk, 0)
		rumSide, swSide := transport.Pipe(clk, 0)
		swSide.SetHandler(func(m of.Message) {
			if br, ok := m.(*of.BarrierRequest); ok {
				rep := of.AcquireBarrierReply()
				rep.SetXID(br.GetXID())
				_ = swSide.Send(rep)
			}
		})
		ctrlTop.SetHandler(func(of.Message) {})
		if _, err := r.AttachSwitch("s1", 1, ctrlBottom, rumSide); err != nil {
			t.Fatal(err)
		}
		return ctrlTop
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for cycle := 0; cycle < 5; cycle++ {
		conn := attach()
		var handles []*UpdateHandle
		for u := 0; u < 50; u++ {
			xid := uint32(cycle*1000 + u + 1)
			handles = append(handles, r.Watch("s1", xid))
			if err := conn.Send(testFlowMod(xid)); err != nil {
				t.Fatal(err)
			}
		}
		// Detach mid-churn: whatever is unresolved must fail, not hang.
		if !r.DetachSwitch("s1") {
			t.Fatalf("cycle %d: DetachSwitch reported not attached", cycle)
		}
		for _, h := range handles {
			if _, err := h.AwaitAck(ctx); err != nil {
				t.Fatalf("cycle %d xid %d: future wedged across detach: %v", cycle, h.XID(), err)
			}
		}
	}
	// A final clean cycle: everything must confirm as installed.
	conn := attach()
	var handles []*UpdateHandle
	for u := 0; u < 50; u++ {
		xid := uint32(9000 + u)
		handles = append(handles, r.Watch("s1", xid))
		if err := conn.Send(testFlowMod(xid)); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		res, err := h.AwaitAck(ctx)
		if err != nil {
			t.Fatalf("post-reattach xid %d wedged: %v", h.XID(), err)
		}
		if res.Outcome != OutcomeInstalled {
			t.Fatalf("post-reattach xid %d outcome %v, want installed", h.XID(), res.Outcome)
		}
	}
	r.DetachSwitch("s1")
}

// TestFaultInjectedDetachChurn extends the detach-race churn with the
// fault layer: the switch conn randomly drops messages and cuts itself
// mid-batch (ActCut during a shard flush), the cut detaches the session
// from a timer goroutine while the driver is still sending, and the
// cycle ends with an explicit detach racing whatever is in flight. Under
// -race this certifies the recovery path's concurrency; the refcount
// check certifies that a conn fault-killed mid-encode leaks no wireQ
// references and no pooled updates.
func TestFaultInjectedDetachChurn(t *testing.T) {
	clk := sim.NewWall()
	r, err := New(Config{
		Clock:        clk,
		Technique:    TechTimeout,
		Timeout:      2 * time.Millisecond,
		BarrierRetry: 5 * time.Millisecond, // fast liveness net: dropped replies re-emit quickly
	}, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Earlier wall-clock tests in this package may still be draining
	// emission tails on timer goroutines; let the package-global
	// refcount settle before baselining it, or a late release would
	// read as a spurious "leak" below.
	before := LiveUpdates()
	for settle := time.Now().Add(5 * time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		cur := LiveUpdates()
		if cur == before || time.Now().After(settle) {
			before = cur
			break
		}
		before = cur
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const cycles = 8
	const nUpdates = 100
	for cycle := 0; cycle < cycles; cycle++ {
		inj := faults.NewInjector(int64(cycle + 1))
		plan := &faults.Plan{Rules: []faults.Rule{
			{Action: faults.ActCut, Prob: 0.002, Dir: faults.DirToSwitch},
			{Action: faults.ActDrop, Prob: 0.05},
		}}
		ctrlTop, ctrlBottom := transport.Pipe(clk, 0)
		rumSide, swSide := transport.Pipe(clk, 0)
		swSide.SetHandler(func(m of.Message) {
			if br, ok := m.(*of.BarrierRequest); ok {
				rep := of.AcquireBarrierReply()
				rep.SetXID(br.GetXID())
				_ = swSide.Send(rep)
			}
		})
		ctrlTop.SetHandler(func(of.Message) {})
		wrapped := faults.Wrap(rumSide, clk, inj, plan).(*faults.Conn)
		wrapped.OnKill(func() { r.DetachSwitchCause("s1", ErrChannelLost) })
		if _, err := r.AttachSwitch("s1", 1, ctrlBottom, wrapped); err != nil {
			t.Fatal(err)
		}

		// Watch everything before sending anything: a mid-churn cut
		// detaches from a timer goroutine, and futures registered after
		// its failAllWatchers sweep would never resolve.
		handles := make([]*UpdateHandle, nUpdates)
		for u := range handles {
			handles[u] = r.Watch("s1", uint32(cycle*1000+u+1))
		}
		for u := range handles {
			_ = ctrlTop.Send(testFlowMod(uint32(cycle*1000 + u + 1)))
		}
		// Detach races in-flight flushes (and possibly the fault cut's
		// own detach — a second detach is a no-op).
		r.DetachSwitchCause("s1", ErrChannelLost)

		for _, h := range handles {
			res, err := h.AwaitAck(ctx)
			if err != nil {
				t.Fatalf("cycle %d xid %d wedged across fault-killed detach: %v", cycle, h.XID(), err)
			}
			if res.Outcome == OutcomeFailed && !errors.Is(res.Err, ErrChannelLost) {
				t.Fatalf("cycle %d xid %d failed without typed cause: %v", cycle, h.XID(), res.Err)
			}
		}
	}

	// Emission tails (listener calls, releases) may still be running on
	// timer goroutines right after the last future resolves; poll the
	// refcount back to its pre-churn value.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if LiveUpdates() == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled-update refcount leak: %d live before churn, %d after", before, LiveUpdates())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
