package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
)

// burstLog records handler calls ("m") and burst ends ("E") in order.
type burstLog struct {
	mu     sync.Mutex
	events []string
	grew   chan struct{}
}

func newBurstLog() *burstLog { return &burstLog{grew: make(chan struct{}, 1024)} }

func (l *burstLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	l.grew <- struct{}{}
}

func (l *burstLog) attach(c Conn) {
	c.(BurstReader).SetBurstEnd(func() { l.add("E") })
	c.SetHandler(func(of.Message) { l.add("m") })
}

// waitFor blocks until the log reads want (or fails the test).
func (l *burstLog) waitFor(t *testing.T, want string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		l.mu.Lock()
		got := strings.Join(l.events, "")
		l.mu.Unlock()
		if got == want {
			return
		}
		if len(got) >= len(want) {
			t.Fatalf("events = %q, want %q", got, want)
		}
		select {
		case <-l.grew:
		case <-deadline:
			t.Fatalf("events = %q after 5s, want %q", got, want)
		}
	}
}

func barrierFrames(t *testing.T, n int) []byte {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		br := &of.BarrierRequest{}
		br.SetXID(uint32(i + 1))
		var err error
		if buf, err = of.MarshalAppend(buf, br); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestTCPBurstEndOncePerRead: N frames that arrive in one read are N
// handler calls followed by exactly one burst end. net.Pipe hands a whole
// Write to one Read, so the read boundaries are the test's to choose.
func TestTCPBurstEndOncePerRead(t *testing.T) {
	raw, nc := net.Pipe()
	c := NewTCP(nc)
	defer c.Close()
	log := newBurstLog()
	log.attach(c)
	if _, err := raw.Write(barrierFrames(t, 5)); err != nil {
		t.Fatal(err)
	}
	log.waitFor(t, "mmmmmE")
	if _, err := raw.Write(barrierFrames(t, 2)); err != nil {
		t.Fatal(err)
	}
	log.waitFor(t, "mmmmmEmmE")
}

// TestTCPBurstEndsAtSplitFrame: a read that stops in the middle of a frame
// ends the burst before the reader blocks for the rest; the completed
// frame is a burst of its own.
func TestTCPBurstEndsAtSplitFrame(t *testing.T) {
	raw, nc := net.Pipe()
	c := NewTCP(nc)
	defer c.Close()
	log := newBurstLog()
	log.attach(c)
	frames := barrierFrames(t, 3)
	cut := len(frames) - 3 // inside the third frame, past its header
	if _, err := raw.Write(frames[:cut]); err != nil {
		t.Fatal(err)
	}
	log.waitFor(t, "mmE")
	if _, err := raw.Write(frames[cut:]); err != nil {
		t.Fatal(err)
	}
	log.waitFor(t, "mmEmE")
}

// TestTCPBurstEndAfterBacklog: messages that arrived before the handler
// existed are delivered by SetHandler as one burst.
func TestTCPBurstEndAfterBacklog(t *testing.T) {
	raw, nc := net.Pipe()
	c := NewTCP(nc)
	defer c.Close()
	if _, err := raw.Write(barrierFrames(t, 3)); err != nil {
		t.Fatal(err)
	}
	// The write returns once the conn's reader has taken the bytes; give
	// it a moment to park them on the backlog.
	tc := c.(*tcpConn)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tc.mu.Lock()
		n := len(tc.backlog)
		tc.mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog holds %d messages after 5s, want 3", n)
		}
	}
	log := newBurstLog()
	log.attach(c)
	log.waitFor(t, "mmmE")
}

// TestPipeBurstEndOncePerDelivery: one SendBatch is one delivery and one
// burst, whatever its size; one Send is a burst of one.
func TestPipeBurstEndOncePerDelivery(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, time.Millisecond)
	log := newBurstLog()
	log.attach(b)
	batch := []of.Message{&of.BarrierRequest{}, &of.BarrierRequest{}, &of.BarrierRequest{}}
	if err := a.(BatchSender).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&of.Hello{}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	log.waitFor(t, "mmmEmE")
}

// TestPipeBurstJoinsWaitingDelivery: under a wall clock a delivery that
// arrived while the handler was busy is part of the same burst — the burst
// ends when nothing further is ready, like a drained read buffer.
func TestPipeBurstJoinsWaitingDelivery(t *testing.T) {
	a, b := Pipe(sim.NewWall(), 0)
	log := newBurstLog()
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	b.(BurstReader).SetBurstEnd(func() { log.add("E") })
	b.SetHandler(func(of.Message) {
		if first {
			first = false
			close(entered)
			<-release
		}
		log.add("m")
	})
	if err := a.Send(&of.Hello{}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := a.Send(&of.Hello{}); err != nil {
		t.Fatal(err)
	}
	// The second delivery parks behind the busy handler.
	be := b.(*pipeEnd)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		be.mu.Lock()
		parked := len(be.rxPend)
		be.mu.Unlock()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second delivery never parked")
		}
	}
	close(release)
	log.waitFor(t, "mmE")
}
