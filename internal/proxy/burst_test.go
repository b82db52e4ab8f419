package proxy

import (
	"strings"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// burstLayer logs controller messages ("m") and burst ends ("E").
type burstLayer struct {
	Pass
	events []string
}

func (l *burstLayer) FromController(ctx *Context, m of.Message) {
	l.events = append(l.events, "m")
	ctx.ToSwitch(m)
}

func (l *burstLayer) EndControllerBurst(*Context) { l.events = append(l.events, "E") }

func (l *burstLayer) log() string { return strings.Join(l.events, "") }

// plainConn hides every optional interface of the conn it wraps.
type plainConn struct{ transport.Conn }

// TestBurstEndFollowsConnBursts: the session relays the controller conn's
// burst boundaries to its BurstLayers — one end per pipe delivery.
func TestBurstEndFollowsConnBursts(t *testing.T) {
	l := &burstLayer{}
	r, _ := newRig(t, Pass{}, l)
	batch := []of.Message{&of.Hello{}, &of.BarrierRequest{}, &of.BarrierRequest{}}
	if err := r.ctrl.(transport.BatchSender).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	_ = r.ctrl.Send(&of.Hello{})
	r.sim.Run()
	if got := l.log(); got != "mmmEmE" {
		t.Fatalf("events = %q, want mmmEmE", got)
	}
	if len(r.toSwitch) != 4 {
		t.Fatalf("switch received %d messages, want 4", len(r.toSwitch))
	}
}

// TestBurstEndPerMessageWithoutHook: a controller conn that cannot tell
// where a burst ends degrades to one burst per message.
func TestBurstEndPerMessageWithoutHook(t *testing.T) {
	s := sim.New()
	ctrlTop, ctrlBottom := transport.Pipe(s, time.Millisecond)
	swTop, _ := transport.Pipe(s, time.Millisecond)
	l := &burstLayer{}
	NewSession("sw1", 7, s, plainConn{ctrlBottom}, swTop, l)
	batch := []of.Message{&of.Hello{}, &of.BarrierRequest{}, &of.BarrierRequest{}}
	if err := ctrlTop.(transport.BatchSender).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := l.log(); got != "mEmEmE" {
		t.Fatalf("events = %q, want mEmEmE", got)
	}
}

// TestBurstEndAfterInject: an injected message is a burst of one.
func TestBurstEndAfterInject(t *testing.T) {
	l := &burstLayer{}
	r, sess := newRig(t, l)
	sess.InjectFromController(&of.BarrierRequest{})
	r.sim.Run()
	if got := l.log(); got != "mE" {
		t.Fatalf("events = %q, want mE", got)
	}
	if len(r.toSwitch) != 1 {
		t.Fatalf("switch received %d messages, want 1", len(r.toSwitch))
	}
}

// batchCounter counts how a switch→controller batch reaches a layer.
type batchCounter struct {
	Pass
	batches, singles int
}

func (l *batchCounter) FromSwitch(ctx *Context, m of.Message) {
	l.singles++
	ctx.ToController(m)
}

func (l *batchCounter) FromSwitchBatch(ctx *Context, ms []of.Message) {
	l.batches++
	ctx.ToControllerBatch(ms)
}

// injectUp sends a batch up from the bottom of the chain.
type injectUp struct {
	Pass
	ctx *Context
}

func (l *injectUp) FromController(ctx *Context, m of.Message) { l.ctx = ctx }

// TestBurstBatchTowardController: ToControllerBatch reaches a BatchLayer
// in one call, falls back to per-message FromSwitch on a plain layer, and
// arrives at the controller complete and in order either way.
func TestBurstBatchTowardController(t *testing.T) {
	batched, plain := &batchCounter{}, &tagLayer{}
	bottom := &injectUp{}
	r, _ := newRig(t, batched, plain, bottom)
	_ = r.ctrl.Send(&of.Hello{}) // hands the bottom layer its context
	r.sim.Run()
	var ms []of.Message
	for i := 1; i <= 3; i++ {
		e := &of.Error{}
		e.SetXID(uint32(i))
		ms = append(ms, e)
	}
	bottom.ctx.ToControllerBatch(ms)
	r.sim.Run()
	if len(plain.seenFS) != 3 {
		t.Fatalf("plain layer saw %d messages, want 3", len(plain.seenFS))
	}
	if batched.batches != 0 || batched.singles != 3 {
		// The plain layer below split the batch, so the BatchLayer above
		// it sees singles — a batch survives only an unbroken chain.
		t.Fatalf("above a plain layer: %d batches, %d singles; want 0, 3", batched.batches, batched.singles)
	}
	if len(r.toCtrl) != 3 {
		t.Fatalf("controller received %d messages, want 3", len(r.toCtrl))
	}
	for i, m := range r.toCtrl {
		if m.GetXID() != uint32(i+1) {
			t.Fatalf("controller message %d has xid %d", i, m.GetXID())
		}
	}

	// An unbroken chain of BatchLayers keeps the batch whole.
	top, bottom2 := &batchCounter{}, &injectUp{}
	r2, _ := newRig(t, top, bottom2)
	_ = r2.ctrl.Send(&of.Hello{})
	r2.sim.Run()
	bottom2.ctx.ToControllerBatch([]of.Message{&of.Error{}, &of.Error{}})
	r2.sim.Run()
	if top.batches != 1 || top.singles != 0 || len(r2.toCtrl) != 2 {
		t.Fatalf("unbroken chain: %d batches, %d singles, %d delivered; want 1, 0, 2",
			top.batches, top.singles, len(r2.toCtrl))
	}
}
