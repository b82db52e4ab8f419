package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Ack codes as the tracker sees them; bed.go maps the wire codes and
// future outcomes onto these.
const (
	ackInstalled = iota
	ackRemoved
	ackOther
)

const (
	slotFree = iota
	slotSent
	slotAcked
)

// slot is one in-flight update of a switch's stream.
type slot struct {
	xid    uint32
	state  uint8
	del    bool
	sample bool // its ack latency is recorded
	last   bool // last FlowMod of its batch: its ack completes the wave
	sendNs int64
}

// barrier is one controller BarrierRequest awaiting its reply.
type barrier struct {
	xid    uint32
	upTo   uint32 // xid of the last FlowMod sent before it
	sendNs int64
}

// tracker is the exactly-once checker and window bookkeeper for one
// switch's update stream. FlowMod xids are 1, 2, 3, … in send order, so
// an xid names its ring slot; the sender never has more than the ring's
// length in flight. It is driven from two goroutines (the driver sends,
// the connection's reader acks), hence the mutex.
type tracker struct {
	mu    sync.Mutex
	slots []slot
	mask  uint32
	next  uint32 // xid of the next FlowMod to send

	sent, acked  int64
	ackedThrough uint32 // every xid <= this has been acked
	barriers     []barrier

	// Breaches of the correctness gate.
	duplicate, unknown, wrongCode, falseAcks, barrierEarly, barrierUnknown int64

	// covered is the xid of the last FlowMod the switch stub has
	// answered a covering barrier for; an ack beyond it precedes the
	// truth. Nil disables the check (rungs whose layer acks by design
	// before any barrier).
	covered *atomic.Uint32

	// Latency samples of the measured window, nanoseconds clipped to
	// ~4.29 s; preallocated so recording does not grow the heap.
	recording bool
	stride    uint32 // every stride-th update is sampled
	// batchWave: the ack of a batch's last FlowMod completes a wave (a
	// controller barrier's reply always does).
	batchWave bool
	ackNs     []uint32
	waveNs    []uint32
	dropped   int64

	// wake is signalled when an ack brings the in-flight count down to
	// wakeAt, the point at which a blocked driver can send again; the
	// driver sets both before it starts.
	wake   chan struct{}
	wakeAt int64
}

func newTracker(ring int, stride uint32, samples int) *tracker {
	n := 1
	for n < ring {
		n <<= 1
	}
	return &tracker{
		slots:  make([]slot, n),
		mask:   uint32(n - 1),
		next:   1,
		stride: stride,
		ackNs:  make([]uint32, 0, samples),
		waveNs: make([]uint32, 0, samples),
		wakeAt: -1,
	}
}

// inFlight reports FlowMods sent and not yet acked.
func (t *tracker) inFlight() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent - t.acked
}

// reserve claims the next n xids for a batch sent at sendNs; dels[i]
// says whether the i-th is a delete. It returns the first xid.
func (t *tracker) reserve(n int, dels func(i int) bool, sendNs int64) uint32 {
	t.mu.Lock()
	first := t.next
	for i := 0; i < n; i++ {
		xid := t.next
		t.next++
		s := &t.slots[xid&t.mask]
		*s = slot{xid: xid, state: slotSent, del: dels(i), sendNs: sendNs,
			sample: xid%t.stride == 0, last: i == n-1}
	}
	t.sent += int64(n)
	t.mu.Unlock()
	return first
}

// peekNext returns the xid the next reserved FlowMod will get.
func (t *tracker) peekNext() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// addBarrier registers a controller barrier sent after every FlowMod
// reserved so far.
func (t *tracker) addBarrier(xid uint32, sendNs int64) {
	t.mu.Lock()
	t.barriers = append(t.barriers, barrier{xid: xid, upTo: t.next - 1, sendNs: sendNs})
	t.mu.Unlock()
}

func clipNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// ack records the acknowledgment of xid with the given code.
func (t *tracker) ack(xid uint32, code int) {
	t.mu.Lock()
	s := &t.slots[xid&t.mask]
	switch {
	case s.xid != xid || s.state == slotFree:
		t.unknown++
		t.mu.Unlock()
		return
	case s.state == slotAcked:
		t.duplicate++
		t.mu.Unlock()
		return
	}
	s.state = slotAcked
	t.acked++
	if (s.del && code != ackRemoved) || (!s.del && code != ackInstalled) {
		t.wrongCode++
	}
	if t.covered != nil && xid > t.covered.Load() {
		t.falseAcks++
	}
	for {
		n := &t.slots[(t.ackedThrough+1)&t.mask]
		if n.xid != t.ackedThrough+1 || n.state != slotAcked {
			break
		}
		t.ackedThrough++
	}
	if t.recording && (s.sample || (s.last && t.batchWave)) {
		d := clipNs(nowNs() - s.sendNs)
		if s.sample {
			t.ackNs = t.appendSample(t.ackNs, d)
		}
		if s.last && t.batchWave {
			t.waveNs = t.appendSample(t.waveNs, d)
		}
	}
	signal := t.sent-t.acked == t.wakeAt
	t.mu.Unlock()
	if signal {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
}

func (t *tracker) appendSample(buf []uint32, d uint32) []uint32 {
	if len(buf) == cap(buf) {
		t.dropped++
		return buf
	}
	return append(buf, d)
}

// barrierReply records the reply to a controller barrier: replies come
// in request order, and only after every FlowMod before the barrier has
// been acked.
func (t *tracker) barrierReply(xid uint32, nowNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.barriers) == 0 || t.barriers[0].xid != xid {
		t.barrierUnknown++
		return
	}
	b := t.barriers[0]
	t.barriers = t.barriers[1:]
	if t.ackedThrough < b.upTo {
		t.barrierEarly++
	}
	if t.recording {
		t.waveNs = t.appendSample(t.waveNs, clipNs(nowNs-b.sendNs))
	}
}

// addWave records the latency of a wave the driver timed itself.
func (t *tracker) addWave(d uint32) {
	t.mu.Lock()
	if t.recording {
		t.waveNs = t.appendSample(t.waveNs, d)
	}
	t.mu.Unlock()
}

// startRecording opens the measured window: samples from here on count.
func (t *tracker) startRecording() {
	t.mu.Lock()
	t.recording = true
	t.ackNs, t.waveNs, t.dropped = t.ackNs[:0], t.waveNs[:0], 0
	t.mu.Unlock()
}

func (t *tracker) stopRecording() {
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
}

// counts is a snapshot of a tracker's totals.
type counts struct {
	sent, acked, barriersOpen                                              int64
	duplicate, unknown, wrongCode, falseAcks, barrierEarly, barrierUnknown int64
}

func (t *tracker) counts() counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return counts{t.sent, t.acked, int64(len(t.barriers)),
		t.duplicate, t.unknown, t.wrongCode, t.falseAcks, t.barrierEarly, t.barrierUnknown}
}

func (c *counts) add(o counts) {
	c.sent += o.sent
	c.acked += o.acked
	c.barriersOpen += o.barriersOpen
	c.duplicate += o.duplicate
	c.unknown += o.unknown
	c.wrongCode += o.wrongCode
	c.falseAcks += o.falseAcks
	c.barrierEarly += o.barrierEarly
	c.barrierUnknown += o.barrierUnknown
}

// failed is the number of updates that did not end as exactly one
// correct acknowledgment.
func (c counts) failed() int64 {
	return (c.sent - c.acked) + c.duplicate + c.unknown + c.wrongCode
}

// breaches lists every violated condition of the correctness gate, empty
// when the stream was delivered exactly once and truthfully.
func (c counts) breaches(who string) []string {
	var out []string
	note := func(n int64, what string) {
		if n != 0 {
			out = append(out, fmt.Sprintf("%s: %d %s", who, n, what))
		}
	}
	note(c.sent-c.acked, "updates never acked by the drain deadline")
	note(c.duplicate, "updates acked twice")
	note(c.unknown, "acks for xids never sent")
	note(c.wrongCode, "acks whose code does not match the command")
	note(c.falseAcks, "acks before the switch answered a covering barrier")
	note(c.barriersOpen, "controller barriers never answered")
	note(c.barrierEarly, "controller barriers answered before the acks of the FlowMods before them")
	note(c.barrierUnknown, "barrier replies out of order or never requested")
	return out
}

// drainDeadline is how long a repetition waits for outstanding acks
// after the drivers stop; what is still missing then counts as failed.
const drainDeadline = 5 * time.Second
