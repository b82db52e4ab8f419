package core

import (
	"context"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// wireBed proxies one switch through RUM on a wall clock with
// frame-encoding conns on both sides (the framing TCP conn over in-memory
// net.Pipe sockets): the deployment shape in which bursts are read
// bursts, the reader drains the outbox, and acks leave in batches.
type wireBed struct {
	rum  *RUM
	ctrl transport.Conn // the controller's end
	sw   transport.Conn // the switch's end
}

// newWireBed attaches switch "s1". onSwitch sees every message RUM sends
// the switch (barriers are answered at once after it returns); onCtrl sees
// every message RUM sends the controller. Both run on a reader goroutine.
func newWireBed(t *testing.T, cfg Config, onSwitch, onCtrl func(of.Message)) *wireBed {
	t.Helper()
	cfg.Clock = sim.NewWall()
	liveBefore := LiveUpdates()
	r, err := New(cfg, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	pair := func() (transport.Conn, transport.Conn) {
		a, b := net.Pipe()
		return transport.NewTCP(a), transport.NewTCP(b)
	}
	bed := &wireBed{rum: r}
	var rumCtrl, rumSw transport.Conn
	bed.ctrl, rumCtrl = pair()
	rumSw, bed.sw = pair()
	bed.sw.SetHandler(func(m of.Message) {
		if onSwitch != nil {
			onSwitch(m)
		}
		if br, ok := m.(*of.BarrierRequest); ok {
			rep := &of.BarrierReply{}
			rep.SetXID(br.GetXID())
			_ = bed.sw.Send(rep)
		}
	})
	if onCtrl == nil {
		onCtrl = func(of.Message) {}
	}
	bed.ctrl.SetHandler(onCtrl)
	if _, err := r.AttachSwitch("s1", 1, rumCtrl, rumSw); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.DetachSwitch("s1")
		bed.ctrl.Close()
		bed.sw.Close()
		// Every bed doubles as a refcount-leak check; waiting for the
		// readers to unwind also hands the next test a settled counter.
		waitLiveUpdates(t, liveBefore)
	})
	return bed
}

// waitLiveUpdates waits for the pooled-update count to return to want
// (goroutines of a detached session drop their references as they unwind).
func waitLiveUpdates(t *testing.T, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); LiveUpdates() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("LiveUpdates = %d, want %d: a reference leaked", LiveUpdates(), want)
		}
	}
}

func (b *wireBed) sendBatch(t *testing.T, ms []of.Message) {
	t.Helper()
	if err := b.ctrl.(transport.BatchSender).SendBatch(ms); err != nil {
		t.Fatal(err)
	}
}

func awaitAll(t *testing.T, hs []*UpdateHandle, want Outcome) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, h := range hs {
		res, err := h.AwaitAck(ctx)
		if err != nil {
			t.Fatalf("xid %d: %v", h.XID(), err)
		}
		if res.Outcome != want {
			t.Fatalf("xid %d: outcome %v (%v), want %v", h.XID(), res.Outcome, res.Err, want)
		}
	}
}

// TestAckOrderBatchBeforeBarrierReply: with the barrier layer on, every
// ack of a batched emission reaches the controller conn before the reply
// to a controller barrier that covers it — while the controller reader
// absorbs barriers concurrently with the switch reader confirming.
func TestAckOrderBatchBeforeBarrierReply(t *testing.T) {
	const (
		rounds   = 200
		perRound = 8
	)
	var (
		mu       sync.Mutex
		acked    = make(map[uint32]bool)
		replies  int
		problems []string
	)
	done := make(chan struct{})
	onCtrl := func(m of.Message) {
		mu.Lock()
		defer mu.Unlock()
		switch mm := m.(type) {
		case *of.Error:
			if xid, _, ok := mm.IsRUMAck(); ok {
				acked[xid] = true
			}
		case *of.BarrierReply:
			// Barrier k (xid 1<<20 | k) follows FlowMods 1..k*perRound.
			k := mm.GetXID() &^ (1 << 20)
			for x := uint32(1); x <= k*perRound; x++ {
				if !acked[x] && len(problems) < 5 {
					problems = append(problems, "barrier reply overtook an ack")
				}
			}
			if replies++; replies == rounds {
				close(done)
			}
		}
	}
	bed := newWireBed(t, Config{Technique: TechBarriers, RUMAware: true, BarrierLayer: true}, nil, onCtrl)
	xid := uint32(0)
	for k := uint32(1); k <= rounds; k++ {
		var ms []of.Message
		for i := 0; i < perRound; i++ {
			xid++
			ms = append(ms, testFlowMod(xid))
		}
		bar := &of.BarrierRequest{}
		bar.SetXID(1<<20 | k)
		bed.sendBatch(t, append(ms, bar))
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier replies did not all arrive within 10s")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(problems) > 0 {
		t.Fatal(problems[0])
	}
	if len(acked) != rounds*perRound {
		t.Fatalf("%d acks arrived, want %d", len(acked), rounds*perRound)
	}
}

// TestDrainRaceKeepsFIFO: the controller reader (which queues a burst and
// drains at its end) and timer-style producers (which drain inline as
// they enqueue) share one outbox and one drainer flag; each producer's
// messages must reach the switch complete and in the order it queued them.
func TestDrainRaceKeepsFIFO(t *testing.T) {
	const (
		bursts    = 100
		perBurst  = 16
		producers = 3
		perProd   = 400
	)
	var (
		mu       sync.Mutex
		lastFM   uint32
		lastEcho [producers]uint32
		got      int
		bad      string
	)
	want := bursts*perBurst + producers*perProd
	done := make(chan struct{})
	onSwitch := func(m of.Message) {
		mu.Lock()
		defer mu.Unlock()
		switch mm := m.(type) {
		case *of.FlowMod:
			if mm.GetXID() != lastFM+1 && bad == "" {
				bad = "controller FlowMods reordered or lost"
			}
			lastFM = mm.GetXID()
		case *of.EchoRequest:
			p, n := mm.GetXID()>>16, mm.GetXID()&0xffff
			if n != lastEcho[p]+1 && bad == "" {
				bad = "inline-drained messages reordered or lost"
			}
			lastEcho[p] = n
		default:
			return
		}
		if got++; got == want {
			close(done)
		}
	}
	bed := newWireBed(t, Config{Technique: TechBarriers}, onSwitch, nil)
	s, _ := bed.rum.sessionByName("s1")
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p uint32) {
			defer wg.Done()
			for n := uint32(1); n <= perProd; n++ {
				e := &of.EchoRequest{}
				e.SetXID(p<<16 | n)
				s.sendToSwitch(e)
			}
		}(uint32(p))
	}
	xid := uint32(0)
	for b := 0; b < bursts; b++ {
		var ms []of.Message
		for i := 0; i < perBurst; i++ {
			xid++
			ms = append(ms, testFlowMod(xid))
		}
		bed.sendBatch(t, ms)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("switch received %d/%d messages within 10s: a queued burst was never drained", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != "" {
		t.Fatal(bad)
	}
}

// detachAt is a strategy that detaches its own switch from inside the
// n-th OnFlowMod — on the controller reader's goroutine, in the middle of
// the burst it is delivering.
type detachAt struct {
	BaseSwitchStrategy
	r    **RUM
	n    int32
	seen atomic.Int32
}

func (d *detachAt) Name() string                             { return "detach-at" }
func (d *detachAt) ForSwitch(StrategyContext) SwitchStrategy { return d }
func (d *detachAt) OnFlowMod(*Update) {
	if d.seen.Add(1) == d.n {
		(*d.r).DetachSwitchCause("s1", ErrSwitchRestarted)
	}
}

// TestDetachRaceMidBurstLeaksNothing: a detach that lands between two
// FlowMods of one read burst fails the tracked half through the detach
// path and the rest at the closed ack layer; every future resolves with
// the detach cause and LiveUpdates returns to where it started.
func TestDetachRaceMidBurstLeaksNothing(t *testing.T) {
	const n = 64
	before := LiveUpdates()
	var r *RUM
	strat := &detachAt{r: &r, n: n / 2}
	bed := newWireBed(t, Config{Strategy: strat, RUMAware: true}, nil, nil)
	r = bed.rum
	var hs []*UpdateHandle
	var ms []of.Message
	for x := uint32(1); x <= n; x++ {
		hs = append(hs, r.Watch("s1", x))
		ms = append(ms, testFlowMod(x))
	}
	bed.sendBatch(t, ms) // one write, one read burst
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, h := range hs {
		res, err := h.AwaitAck(ctx)
		if err != nil {
			t.Fatalf("xid %d wedged across the detach: %v", h.XID(), err)
		}
		if res.Outcome != OutcomeFailed || res.Err != ErrSwitchRestarted {
			t.Fatalf("xid %d: %v / %v, want failed / ErrSwitchRestarted", h.XID(), res.Outcome, res.Err)
		}
	}
	// The reader may still be unwinding the burst's tail.
	waitLiveUpdates(t, before)
}

// TestBurstOverloadBlockDrainsOwnBurst: under OverloadBlock the reader
// that fills the outbox in the middle of its burst is the only goroutine
// that will ever flush it, so it must drain before it parks instead of
// sitting out OverloadDeadline and shedding.
func TestBurstOverloadBlockDrainsOwnBurst(t *testing.T) {
	const n = 64
	bed := newWireBed(t, Config{
		Technique:        TechBarriers,
		OutboxLimit:      4,
		Overload:         OverloadBlock,
		OverloadDeadline: 5 * time.Second,
	}, nil, nil)
	var hs []*UpdateHandle
	var ms []of.Message
	for x := uint32(1); x <= n; x++ {
		hs = append(hs, bed.rum.Watch("s1", x))
		ms = append(ms, testFlowMod(x))
	}
	start := time.Now()
	bed.sendBatch(t, ms) // one burst, sixteen times the outbox bound
	awaitAll(t, hs, OutcomeInstalled)
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("burst took %v: the admitter waited on a drain only it could run", el)
	}
	if sheds := bed.rum.OverloadSheds(); sheds != 0 {
		t.Fatalf("%d updates shed", sheds)
	}
}

// TestXIDBlockNeverBelowBase: blocks of xids taken across the uint32 wrap
// lie wholly inside RUM's reserved range, under concurrent allocation.
func TestXIDBlockNeverBelowBase(t *testing.T) {
	r, err := New(Config{Clock: sim.New()}, NewTopology(nil))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		r.nextXID.Store(math.MaxUint32 - 2000)
		var wg sync.WaitGroup
		for g := uint32(0); g < 4; g++ {
			wg.Add(1)
			go func(g uint32) {
				defer wg.Done()
				for i := uint32(0); i < 200; i++ {
					n := 1 + (i*7+g*13)%300
					first := r.newXIDs(n)
					last := first + n - 1
					if first <= of.RUMXIDBase || last < first {
						t.Errorf("block [%#x, %#x] (n=%d) leaves the reserved range", first, last, n)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
