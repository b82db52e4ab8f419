package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
)

func TestPipeDeliveryAndLatency(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, 2*time.Millisecond)
	var gotAt time.Duration
	b.SetHandler(func(m of.Message) {
		if m.MsgType() != of.TypeBarrierRequest {
			t.Errorf("got %v, want barrier request", m.MsgType())
		}
		gotAt = s.Now()
	})
	if err := a.Send(&of.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if gotAt != 2*time.Millisecond {
		t.Errorf("delivered at %v, want 2ms", gotAt)
	}
}

func TestPipeOrderPreserved(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, time.Millisecond)
	var xids []uint32
	b.SetHandler(func(m of.Message) { xids = append(xids, m.GetXID()) })
	for i := uint32(1); i <= 20; i++ {
		fm := &of.FlowMod{Match: of.MatchAll(), Command: of.FCAdd}
		fm.SetXID(i)
		if err := a.Send(fm); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(xids) != 20 {
		t.Fatalf("delivered %d messages, want 20", len(xids))
	}
	for i, x := range xids {
		if x != uint32(i+1) {
			t.Fatalf("reordered delivery: %v", xids)
		}
	}
}

func TestPipeBacklogBeforeHandler(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, 0)
	_ = a.Send(&of.Hello{})
	_ = a.Send(&of.BarrierRequest{})
	s.Run() // delivered with no handler: buffered
	var got []of.MsgType
	b.SetHandler(func(m of.Message) { got = append(got, m.MsgType()) })
	if len(got) != 2 || got[0] != of.TypeHello || got[1] != of.TypeBarrierRequest {
		t.Fatalf("backlog delivery = %v", got)
	}
}

func TestPipeClose(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, 0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&of.Hello{}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	// Messages in flight toward a closed endpoint are dropped silently.
	_ = b.Send(&of.Hello{})
	_ = b
	s.Run()
}

func TestTCPConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		msgs []of.Message
		mu   sync.Mutex
	}
	var res result
	done := make(chan struct{})

	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		server := NewTCP(nc)
		count := 0
		server.SetHandler(func(m of.Message) {
			res.mu.Lock()
			res.msgs = append(res.msgs, m)
			count++
			if count == 3 {
				close(done)
			}
			res.mu.Unlock()
			// Echo barriers back as replies.
			if m.MsgType() == of.TypeBarrierRequest {
				br := &of.BarrierReply{}
				br.SetXID(m.GetXID())
				_ = server.Send(br)
			}
		})
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reply := make(chan of.Message, 1)
	client.SetHandler(func(m of.Message) { reply <- m })

	_ = client.Send(&of.Hello{})
	fm := &of.FlowMod{Match: of.MatchAll(), Command: of.FCAdd, Priority: 7,
		BufferID: of.BufferNone, OutPort: of.PortNone,
		Actions: []of.Action{of.ActionOutput{Port: 1}}}
	fm.SetXID(42)
	_ = client.Send(fm)
	br := &of.BarrierRequest{}
	br.SetXID(43)
	_ = client.Send(br)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not receive 3 messages")
	}
	select {
	case m := <-reply:
		if m.MsgType() != of.TypeBarrierReply || m.GetXID() != 43 {
			t.Errorf("reply = %v xid=%d, want barrier reply 43", m.MsgType(), m.GetXID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no barrier reply")
	}

	res.mu.Lock()
	defer res.mu.Unlock()
	if len(res.msgs) != 3 {
		t.Fatalf("server saw %d messages, want 3", len(res.msgs))
	}
	gotFM, ok := res.msgs[1].(*of.FlowMod)
	if !ok || gotFM.Priority != 7 || gotFM.GetXID() != 42 {
		t.Errorf("flow mod did not survive framing: %#v", res.msgs[1])
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			_ = NewTCP(nc)
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := c.Send(&of.Hello{}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close = %v, want nil", err)
	}
}

// tcpPair builds a connected loopback TCP conn pair in the given mode.
func tcpPair(t *testing.T, unbuffered bool) (client, server Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		nc  net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		nc, err := ln.Accept()
		ch <- res{nc, err}
	}()
	cnc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	mk := NewTCP
	if unbuffered {
		mk = NewTCPUnbuffered
	}
	client, server = mk(cnc), mk(r.nc)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestTCPCoalescedOrder drives a burst of mixed frames through the
// coalescing writer and checks nothing is lost, reordered, or corrupted.
func TestTCPCoalescedOrder(t *testing.T) {
	for _, unbuffered := range []bool{false, true} {
		name := "coalesced"
		if unbuffered {
			name = "unbuffered"
		}
		t.Run(name, func(t *testing.T) {
			client, server := tcpPair(t, unbuffered)
			const n = 5000
			total := n + n/97 // FlowMods plus interleaved barriers
			done := make(chan []of.Message, 1)
			var got []of.Message
			server.SetHandler(func(m of.Message) {
				got = append(got, m)
				if len(got) == total {
					done <- got
				}
			})
			var batch []of.Message
			for i := uint32(1); i <= n; i++ {
				fm := &of.FlowMod{Match: of.MatchAll(), Command: of.FCAdd,
					Actions: []of.Action{of.ActionOutput{Port: uint16(i)}}}
				fm.SetXID(i)
				batch = append(batch, fm)
				if len(batch) == 16 {
					if err := client.(BatchSender).SendBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = nil
				}
				if i%97 == 0 {
					br := &of.BarrierRequest{}
					br.SetXID(i)
					if err := client.Send(br); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := client.(BatchSender).SendBatch(batch); err != nil {
				t.Fatal(err)
			}
			select {
			case msgs := <-done:
				// FlowMod xids 1..n must appear in order with their payloads
				// intact; barriers ride interleaved.
				wantMod := uint32(1)
				for _, m := range msgs {
					fm, ok := m.(*of.FlowMod)
					if !ok {
						continue
					}
					if fm.GetXID() != wantMod {
						t.Fatalf("flow_mod xid %d out of order (want %d)", fm.GetXID(), wantMod)
					}
					want := of.ActionOutput{Port: uint16(wantMod)}
					if len(fm.Actions) != 1 || fm.Actions[0] != want {
						t.Fatalf("flow_mod %d payload corrupted: %v", wantMod, fm.Actions)
					}
					wantMod++
				}
				if wantMod != n+1 {
					t.Fatalf("received %d flow_mods, want %d", wantMod-1, n)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %d messages", total)
			}
		})
	}
}

// TestTCPCoalescedOrderStrict sends sequenced FlowMods only and asserts
// exact in-order delivery across flush boundaries.
func TestTCPCoalescedOrderStrict(t *testing.T) {
	client, server := tcpPair(t, false)
	const n = 20000 // enough to cross several 64k flush buffers
	done := make(chan struct{})
	next := uint32(1)
	server.SetHandler(func(m of.Message) {
		if m.GetXID() != next {
			t.Errorf("got xid %d, want %d", m.GetXID(), next)
		}
		next++
		if next == n+1 {
			close(done)
		}
	})
	for i := uint32(1); i <= n; i++ {
		fm := &of.FlowMod{Match: of.MatchAll(), Command: of.FCAdd}
		fm.SetXID(i)
		if err := client.Send(fm); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out at xid %d", next)
	}
}

// TestTCPEncodesFrames checks the ownership marker: TCP conns serialize
// during Send, pipes hand over pointers.
func TestTCPEncodesFrames(t *testing.T) {
	client, _ := tcpPair(t, false)
	if !EncodesFrames(client) {
		t.Error("coalescing TCP conn must report EncodesFrames")
	}
	ub, _ := tcpPair(t, true)
	if EncodesFrames(ub) {
		t.Error("unbuffered TCP conn predates frame-ownership hand-back; must not report EncodesFrames")
	}
	s := sim.New()
	a, _ := Pipe(s, 0)
	if EncodesFrames(a) {
		t.Error("pipes pass structs by pointer; must not report EncodesFrames")
	}
}

// TestPipeRxPendShrinks checks that the out-of-order reorder map is
// dropped once it drains, so long-lived pipes do not retain their
// high-water mark of buffered sends.
func TestPipeRxPendShrinks(t *testing.T) {
	s := sim.New()
	a, b := Pipe(s, time.Millisecond)
	var got int
	b.SetHandler(func(of.Message) { got++ })
	for i := 0; i < 100; i++ {
		if err := a.Send(&of.BarrierRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if got != 100 {
		t.Fatalf("delivered %d, want 100", got)
	}
	be := b.(*pipeEnd)
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.rxPend != nil {
		t.Errorf("rxPend retained after drain (len %d)", len(be.rxPend))
	}
}

// TestTCPWritevRecyclesBuffers forces a burst that spills across several
// coalescing buffers (the net.Buffers writev path) and checks the flush
// buffers come back to the free list — WriteTo consumes the slice it is
// handed, so recycling must work from a snapshot (regression test).
func TestTCPWritevRecyclesBuffers(t *testing.T) {
	client, server := tcpPair(t, false)
	const frames = 40
	payload := make([]byte, 8<<10)
	var batch []of.Message
	for i := 0; i < frames; i++ {
		er := &of.EchoRequest{Data: payload}
		er.SetXID(uint32(i + 1))
		batch = append(batch, er)
	}
	done := make(chan struct{})
	n := 0
	server.SetHandler(func(m of.Message) {
		if n++; n == frames {
			close(done)
		}
	})
	// One SendBatch holds the writer lock for the whole burst: ~320KB
	// spills across several 64KB buffers and the writer flushes them in
	// one multi-buffer writev.
	if err := client.(BatchSender).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("received %d/%d frames", n, frames)
	}
	// The peer can have every frame before the writer is back from the
	// writev and has recycled its buffers: wait for that, not for luck.
	tc := client.(*tcpConn)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tc.wmu.Lock()
		free := len(tc.wfree)
		tc.wmu.Unlock()
		if free > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no flush buffers recycled after a writev burst; free list defeated")
		}
	}
}
