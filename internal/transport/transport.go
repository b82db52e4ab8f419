// Package transport carries OpenFlow messages between controllers, RUM
// proxies and switches. Two implementations share one interface: Pipe
// builds an in-memory connection pair whose delivery is driven by a
// simulated clock (deterministic experiments), and TCP wraps a net.Conn
// with OpenFlow framing and a coalescing, zero-allocation writer (real
// deployments). RUM layers are written against Conn and run unchanged
// over either; internal/faults wraps any Conn with deterministic fault
// injection. Who owns a message after Send — and when it may be
// recycled — is governed by the FrameEncoder marker; the full
// buffer-ownership contract is documented in docs/ARCHITECTURE.md.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
)

// Handler consumes received messages. Handlers must not block: in
// simulation they run on the simulator goroutine; over TCP they run on the
// connection's reader goroutine.
type Handler func(m of.Message)

// Conn is an asynchronous, message-oriented OpenFlow channel endpoint.
type Conn interface {
	// Send queues m for delivery to the peer. It never blocks.
	Send(m of.Message) error
	// SetHandler installs the receive callback. Messages arriving before a
	// handler is installed are buffered and delivered on installation, in
	// order.
	SetHandler(h Handler)
	// Close tears the connection down; the peer's handler receives no
	// further messages.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: connection closed")

// ErrOverloaded is returned by bounded conns whose pending-send buffer is
// full and whose overload policy is OverloadShed (or whose OverloadBlock
// deadline expired): the message was NOT queued and the caller must treat
// it as failed, not silently dropped. Match with errors.Is.
var ErrOverloaded = errors.New("transport: send queue overloaded")

// OverloadPolicy selects what a bounded queue does with a message that
// arrives while the queue is at its configured limit. It is shared by
// the transport writer bound (TCPOptions) and RUM's per-switch shard
// outbox bound (core.Config); docs/OVERLOAD.md is the long-form
// contract.
type OverloadPolicy uint8

const (
	// OverloadBlock makes the sender wait, up to a deadline, for the
	// queue to drain; deadline expiry fails with ErrOverloaded. This is
	// the default: backpressure propagates to the producer instead of
	// growing memory. Under a single-threaded simulated clock blocking
	// would deadlock the event loop, so Block degrades to immediate
	// deadline expiry there.
	OverloadBlock OverloadPolicy = iota
	// OverloadShed fails the send fast with ErrOverloaded — never a
	// silent drop: the caller (RUM's ack layer) resolves the affected
	// future with a typed cause.
	OverloadShed
	// OverloadDegrade treats sustained queue pressure as a slow consumer:
	// RUM's shard widens its batch coalescing window (fewer, larger
	// flushes) and, at the hard limit, behaves like OverloadBlock. At the
	// transport layer it is equivalent to OverloadBlock.
	OverloadDegrade
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	case OverloadDegrade:
		return "degrade"
	default:
		return "unknown"
	}
}

// ParseOverloadPolicy maps the flag spellings (block, shed, degrade) to a
// policy.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "", "block":
		return OverloadBlock, nil
	case "shed":
		return OverloadShed, nil
	case "degrade":
		return OverloadDegrade, nil
	default:
		return 0, fmt.Errorf("transport: unknown overload policy %q (want block, shed, or degrade)", s)
	}
}

// BatchSender is implemented by conns that can hand a whole batch to the
// wire in one operation — one scheduled delivery for an in-memory pipe,
// one coalesced flush for TCP — preserving message order. RUM's per-switch
// shards use it to amortize transport overhead across a flush.
type BatchSender interface {
	// SendBatch queues ms for in-order delivery to the peer. Like Send it
	// never blocks. The conn may retain the slice until delivery: the
	// caller must hand over ownership and not reuse it.
	SendBatch(ms []of.Message) error
}

// PartialBatchSender is implemented by conns that can apply backpressure
// mid-batch: SendBatchPartial queues an in-order prefix of ms and reports
// how many messages it accepted. n < len(ms) with a nil error means the
// conn's pending bound filled; the caller keeps ownership of ms[n:] and
// retries them later (RUM's shard flush re-queues the suffix at the front
// of its outbox). Unlike SendBatch, the conn never retains the slice.
type PartialBatchSender interface {
	SendBatchPartial(ms []of.Message) (int, error)
}

// BurstReader is implemented by conns whose receive side knows where a
// read burst ends. A burst is everything one read delivered: over TCP every
// frame decoded until the framing reader's buffer holds no further whole
// frame, on a Pipe the messages of one delivery (and of any further
// deliveries already waiting behind it). Consumers that amortize
// work across a burst (RUM tracks a burst's FlowMods, then stamps one
// covering barrier and flushes once) install a callback here; a conn
// without the hook is treated by its consumer as one burst per message.
type BurstReader interface {
	// SetBurstEnd installs fn, which runs on the receive goroutine after
	// the handler returned for the last message of each burst — including
	// the backlog SetHandler delivers. Install it before SetHandler.
	SetBurstEnd(fn func())
}

// FrameEncoder is implemented by conns that serialize each message into
// wire bytes while Send/SendBatch runs: once the call returns, the conn
// holds no reference to the message struct and the caller regains
// exclusive ownership (it may recycle the message via of.Release). Pipes
// deliver message structs by pointer and therefore do not implement it.
type FrameEncoder interface {
	// EncodesFrames reports whether sends copy messages into wire form
	// before returning.
	EncodesFrames() bool
}

// EncodesFrames reports whether c copies messages into wire bytes during
// Send, i.e. whether the sender keeps exclusive ownership of sent message
// structs.
func EncodesFrames(c Conn) bool {
	fe, ok := c.(FrameEncoder)
	return ok && fe.EncodesFrames()
}

// pipeEnd is one end of an in-memory connection pair.
//
// Delivery is strictly FIFO per direction: every send is stamped with a
// sequence number under the sender's lock, and the receiving end releases
// arrivals in stamp order. Under the single-threaded simulated clock this
// changes nothing; under a wall clock — where each scheduled delivery
// runs on its own timer goroutine and same-deadline timers fire in
// unspecified order — it is what upholds the in-order contract RUM's
// barrier semantics are built on.
type pipeEnd struct {
	clock   sim.Clock
	latency time.Duration

	mu       sync.Mutex
	peer     *pipeEnd
	handler  Handler
	burstEnd func()
	backlog  []of.Message
	closed   bool

	txSeq      uint64                  // next sequence stamp for sends from this end
	rxNext     uint64                  // next stamp due for delivery at this end
	rxPend     map[uint64][]of.Message // out-of-order arrivals awaiting predecessors
	delivering bool                    // a goroutine is draining rxPend in order
}

// Pipe creates a connected pair of in-memory conns with the given one-way
// delivery latency, clocked by clk. Message structs are passed by pointer
// without re-encoding; senders must not mutate a message after Send.
func Pipe(clk sim.Clock, latency time.Duration) (a, b Conn) {
	ea := &pipeEnd{clock: clk, latency: latency}
	eb := &pipeEnd{clock: clk, latency: latency}
	ea.peer = eb
	eb.peer = ea
	return ea, eb
}

func (e *pipeEnd) Send(m of.Message) error {
	return e.send([]of.Message{m})
}

// SendBatch implements BatchSender: the whole batch rides one scheduled
// delivery (messages keep their order and share the link latency).
func (e *pipeEnd) SendBatch(ms []of.Message) error {
	if len(ms) == 0 {
		return nil
	}
	return e.send(ms)
}

func (e *pipeEnd) send(ms []of.Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	peer := e.peer
	seq := e.txSeq
	e.txSeq++
	e.mu.Unlock()
	e.clock.After(e.latency, func() { peer.arrive(seq, ms) })
	return nil
}

// arrive accepts one send's messages at the receiving end and releases
// pending arrivals in stamp order. The first goroutine in becomes the
// drainer; later (possibly earlier-stamped) arrivals just park their
// payload and leave, so handlers run in order on exactly one goroutine at
// a time.
func (e *pipeEnd) arrive(seq uint64, ms []of.Message) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if e.rxPend == nil {
		e.rxPend = make(map[uint64][]of.Message)
	}
	e.rxPend[seq] = ms
	if e.delivering {
		e.mu.Unlock()
		return
	}
	e.delivering = true
	// endBurst is non-nil while delivered messages await their burst end.
	// A burst is every delivery found ready back to back: under a wall
	// clock, arrivals that parked while the handler ran join the burst.
	var endBurst func()
	for !e.closed {
		due, ok := e.rxPend[e.rxNext]
		if !ok {
			if endBurst == nil {
				break
			}
			e.mu.Unlock()
			endBurst()
			endBurst = nil
			e.mu.Lock()
			continue
		}
		delete(e.rxPend, e.rxNext)
		e.rxNext++
		h := e.handler
		if h == nil {
			e.backlog = append(e.backlog, due...)
			continue
		}
		endBurst = e.burstEnd
		e.mu.Unlock()
		for _, m := range due {
			h(m)
		}
		e.mu.Lock()
	}
	e.delivering = false
	// Go maps never shrink their bucket arrays: a burst of out-of-order
	// deliveries would pin the high-water mark of reorder buffers for the
	// life of the pipe. Drop the map whenever it drains so long-lived
	// wall-clock pipes return that memory.
	if len(e.rxPend) == 0 {
		e.rxPend = nil
	}
	e.mu.Unlock()
}

func (e *pipeEnd) SetHandler(h Handler) {
	e.mu.Lock()
	e.handler = h
	backlog, burstEnd := e.backlog, e.burstEnd
	e.backlog = nil
	e.mu.Unlock()
	deliverBacklog(h, burstEnd, backlog)
}

// SetBurstEnd implements BurstReader: a burst is one delivery, or several
// that were ready back to back.
func (e *pipeEnd) SetBurstEnd(fn func()) {
	e.mu.Lock()
	e.burstEnd = fn
	e.mu.Unlock()
}

// deliverBacklog hands messages buffered before the handler existed to it
// as one burst.
func deliverBacklog(h Handler, burstEnd func(), backlog []of.Message) {
	for _, m := range backlog {
		h(m)
	}
	if burstEnd != nil && len(backlog) > 0 {
		burstEnd()
	}
}

func (e *pipeEnd) Close() error {
	e.mu.Lock()
	e.closed = true
	e.rxPend = nil
	e.mu.Unlock()
	return nil
}

// tcpConn adapts a stream connection (normally TCP) to Conn with OpenFlow
// framing and a coalescing writer: Send serializes the frame into a
// pending write buffer and a dedicated writer goroutine flushes everything
// accumulated since the last flush in a single Write (a writev via
// net.Buffers when a burst spilled across buffers). A burst of N messages
// therefore costs one syscall, not N, and the encode path allocates
// nothing at steady state: write buffers cycle through a free list and
// frames are appended in place with of.MarshalAppend.
//
// The framing reader is pooled symmetrically: one buffered reader and one
// reusable frame buffer per connection, decoding hot message types into
// pooled structs.
type tcpConn struct {
	nc         net.Conn
	unbuffered bool
	opts       TCPOptions

	// Coalescing writer state (default mode).
	wmu     sync.Mutex
	wbuf    []byte      // frames accumulating toward the next flush
	wspill  net.Buffers // filled buffers awaiting the writer (burst overflow)
	wfree   [][]byte    // recycled flush buffers
	scratch net.Buffers // writer-owned flush snapshot (headers survive the write)
	wvecs   net.Buffers // writer-owned writev scratch (consumed by WriteTo)
	wake    chan struct{}
	// Bounded-writer state (opts.MaxPending > 0): pending counts queued
	// bytes not yet handed to the kernel; drain broadcasts when a flush
	// completes so OverloadBlock senders re-check; dead mirrors Close so
	// blocked senders exit.
	pending int
	drain   *sync.Cond // lazily bound to wmu when MaxPending > 0
	dead    bool

	// Unbuffered mode (the pre-coalescing baseline): one queued message
	// and one Write syscall per frame.
	sendCh chan of.Message

	mu       sync.Mutex
	handler  Handler
	burstEnd func()
	backlog  []of.Message
	closed   bool
	readErr  error

	done chan struct{}
}

// flushBufSize is the target capacity of one coalescing buffer; a buffer
// that reaches it is spilled to the writer queue and a fresh one started.
const flushBufSize = 64 << 10

// TCPOptions bounds the coalescing writer. The zero value keeps the
// historical unbounded behavior.
type TCPOptions struct {
	// MaxPending bounds the bytes queued in the coalescing writer but not
	// yet handed to the kernel (the coalescing buffer plus its spill
	// list). Zero means unbounded. One flush already snapshot by the
	// writer goroutine is additionally in flight, so peak memory is
	// bounded by roughly twice this value.
	MaxPending int
	// Policy selects OverloadBlock (default: Send waits up to
	// BlockDeadline for the writer to drain) or OverloadShed (Send fails
	// immediately with ErrOverloaded). OverloadDegrade behaves like
	// OverloadBlock here; the coalescing-window side of Degrade lives in
	// RUM's shard.
	Policy OverloadPolicy
	// BlockDeadline bounds the OverloadBlock wait (default 100ms);
	// expiry fails the send with ErrOverloaded.
	BlockDeadline time.Duration
}

// NewTCP wraps an established stream connection with the coalescing
// writer. The caller owns protocol behaviour (hello exchange etc.); NewTCP
// only frames messages.
func NewTCP(nc net.Conn) Conn {
	return NewTCPOpts(nc, TCPOptions{})
}

// NewTCPOpts is NewTCP with an explicit writer bound.
func NewTCPOpts(nc net.Conn, opts TCPOptions) Conn {
	if opts.MaxPending > 0 && opts.BlockDeadline == 0 {
		opts.BlockDeadline = 100 * time.Millisecond
	}
	c := &tcpConn{
		nc:   nc,
		opts: opts,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if opts.MaxPending > 0 {
		c.drain = sync.NewCond(&c.wmu)
	}
	go c.readLoop()
	go c.writeLoop()
	return c
}

// NewTCPUnbuffered wraps a stream connection with the historical
// one-Write-per-message path. It exists as the baseline the wire
// throughput benchmarks compare the coalescing writer against; production
// deployments should use NewTCP.
func NewTCPUnbuffered(nc net.Conn) Conn {
	c := &tcpConn{
		nc:         nc,
		unbuffered: true,
		sendCh:     make(chan of.Message, 1024),
		done:       make(chan struct{}),
	}
	go c.readLoop()
	go c.writeLoopUnbuffered()
	return c
}

// Dial connects to an OpenFlow endpoint over TCP.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCP(nc), nil
}

// EncodesFrames implements FrameEncoder: both TCP modes serialize the
// message during Send and retain no reference to the struct.
func (c *tcpConn) EncodesFrames() bool { return !c.unbuffered }

func (c *tcpConn) readLoop() {
	var read func() (of.Message, error)
	// more reports whether the burst continues: another whole frame is
	// already buffered. The unbuffered baseline reads frame by frame, so
	// every message is its own burst.
	more := func() bool { return false }
	if c.unbuffered {
		read = func() (of.Message, error) { return of.ReadMessage(c.nc) }
	} else {
		mr := of.NewMessageReader(c.nc)
		read, more = mr.ReadMessage, mr.FrameBuffered
	}
	// The handler and the burst-end callback are looked up once per burst,
	// not once per message; a handler installed mid-burst takes over at the
	// next one.
	var h Handler
	var burstEnd func()
	for {
		m, err := read()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			c.Close()
			return
		}
		if h == nil {
			c.mu.Lock()
			h, burstEnd = c.handler, c.burstEnd
			if h == nil {
				c.backlog = append(c.backlog, m)
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
		}
		h(m)
		if !more() {
			if burstEnd != nil {
				burstEnd()
			}
			h = nil
		}
	}
}

// appendFrameLocked encodes m onto the current coalescing buffer, spilling
// a full buffer to the writer queue. Callers hold wmu.
func (c *tcpConn) appendFrameLocked(m of.Message) error {
	if c.wbuf == nil {
		if n := len(c.wfree); n > 0 {
			c.wbuf = c.wfree[n-1][:0]
			c.wfree[n-1] = nil
			c.wfree = c.wfree[:n-1]
		} else {
			c.wbuf = make([]byte, 0, flushBufSize)
		}
	}
	before := len(c.wbuf)
	buf, err := of.MarshalAppend(c.wbuf, m)
	if err != nil {
		return err
	}
	c.wbuf = buf
	c.pending += len(buf) - before
	if len(c.wbuf) >= flushBufSize {
		c.wspill = append(c.wspill, c.wbuf)
		c.wbuf = nil
	}
	return nil
}

// admitLocked enforces the writer bound for one send: it returns nil when
// the caller may append, ErrOverloaded when the bound is full and the
// policy (or its deadline) says fail, ErrClosed when the conn died while
// waiting. Callers hold wmu.
func (c *tcpConn) admitLocked() error {
	if c.opts.MaxPending <= 0 || c.pending < c.opts.MaxPending {
		return nil
	}
	if c.opts.Policy == OverloadShed {
		return ErrOverloaded
	}
	// OverloadBlock / OverloadDegrade: wait for the writer to drain, up
	// to the deadline. The timer broadcasts so the Wait wakes even when
	// no flush completes in time.
	deadline := time.Now().Add(c.opts.BlockDeadline)
	for !c.dead && c.pending >= c.opts.MaxPending {
		if !time.Now().Before(deadline) {
			return ErrOverloaded
		}
		t := time.AfterFunc(time.Until(deadline), c.drain.Broadcast)
		c.drain.Wait()
		t.Stop()
	}
	if c.dead {
		return ErrClosed
	}
	return nil
}

// nudge wakes the writer; the 1-slot channel makes repeated nudges free.
func (c *tcpConn) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *tcpConn) Send(m of.Message) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if c.unbuffered {
		select {
		case c.sendCh <- m:
			return nil
		case <-c.done:
			return ErrClosed
		}
	}
	c.wmu.Lock()
	err := c.admitLocked()
	if err == nil {
		err = c.appendFrameLocked(m)
	}
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.nudge()
	return nil
}

// SendBatch implements BatchSender: the whole batch is encoded under one
// lock acquisition and handed to the writer with one wake-up, so it rides
// at most two Writes (one per spilled buffer boundary) regardless of size.
func (c *tcpConn) SendBatch(ms []of.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if c.unbuffered {
		for _, m := range ms {
			if err := c.Send(m); err != nil {
				return err
			}
		}
		return nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.wmu.Lock()
	// One admission check covers the whole batch: the bound admits a send
	// whenever pending is below the limit, so a batch may overshoot by its
	// own size — batches come from RUM's shard, whose own outbox bound
	// already caps them.
	if err := c.admitLocked(); err != nil {
		c.wmu.Unlock()
		return err
	}
	for _, m := range ms {
		if err := c.appendFrameLocked(m); err != nil {
			c.wmu.Unlock()
			return err
		}
	}
	c.wmu.Unlock()
	c.nudge()
	return nil
}

// SendBatchPartial implements PartialBatchSender: messages are encoded in
// order until the writer bound fills, and the accepted count is returned
// without blocking — the backpressure signal RUM's shard flush turns into
// outbox re-queueing. Without a bound it accepts the whole batch.
func (c *tcpConn) SendBatchPartial(ms []of.Message) (int, error) {
	if c.unbuffered {
		for i, m := range ms {
			if err := c.Send(m); err != nil {
				return i, err
			}
		}
		return len(ms), nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	n := 0
	c.wmu.Lock()
	for _, m := range ms {
		if c.opts.MaxPending > 0 && c.pending >= c.opts.MaxPending {
			break
		}
		if err := c.appendFrameLocked(m); err != nil {
			c.wmu.Unlock()
			if n > 0 {
				c.nudge()
			}
			return n, err
		}
		n++
	}
	c.wmu.Unlock()
	if n > 0 {
		c.nudge()
	}
	return n, nil
}

func (c *tcpConn) writeLoop() {
	for {
		select {
		case <-c.wake:
			if !c.flushPending() {
				return
			}
		case <-c.done:
			return
		}
	}
}

// flushPending drains everything queued by Send/SendBatch. It returns
// false once the connection is dead. All buffers flushed together go to
// the kernel in one operation: a single Write in the common case, a writev
// via net.Buffers when a burst spilled across coalescing buffers.
func (c *tcpConn) flushPending() bool {
	for {
		c.wmu.Lock()
		bufs := append(c.scratch[:0], c.wspill...)
		c.wspill = c.wspill[:0]
		if len(c.wbuf) > 0 {
			bufs = append(bufs, c.wbuf)
			c.wbuf = nil
		}
		c.wmu.Unlock()
		if len(bufs) == 0 {
			c.scratch = bufs
			return true
		}
		var err error
		if len(bufs) == 1 {
			_, err = c.nc.Write(bufs[0])
		} else {
			// net.Buffers.WriteTo consumes what it writes: it nils the
			// elements of the slice it is given as they drain. Hand it a
			// separate snapshot (writer-owned, reused) so the headers in
			// bufs survive for recycling.
			c.wvecs = append(c.wvecs[:0], bufs...)
			_, err = c.wvecs.WriteTo(c.nc)
		}
		c.wmu.Lock()
		for i, b := range bufs {
			// The bytes count as pending until the kernel takes them, so
			// a bounded writer's limit covers write-in-flight memory too.
			c.pending -= len(b)
			if cap(b) >= flushBufSize && len(c.wfree) < 4 {
				c.wfree = append(c.wfree, b[:0])
			}
			bufs[i] = nil
		}
		c.scratch = bufs[:0]
		if c.drain != nil {
			c.drain.Broadcast()
		}
		c.wmu.Unlock()
		if err != nil {
			c.Close()
			return false
		}
	}
}

func (c *tcpConn) writeLoopUnbuffered() {
	for {
		select {
		case m := <-c.sendCh:
			if err := of.WriteMessage(c.nc, m); err != nil {
				c.Close()
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *tcpConn) SetHandler(h Handler) {
	c.mu.Lock()
	c.handler = h
	backlog, burstEnd := c.backlog, c.burstEnd
	c.backlog = nil
	c.mu.Unlock()
	deliverBacklog(h, burstEnd, backlog)
}

// SetBurstEnd implements BurstReader: a burst is every frame decoded until
// the framing reader's buffer holds no further whole frame.
func (c *tcpConn) SetBurstEnd(fn func()) {
	c.mu.Lock()
	c.burstEnd = fn
	c.mu.Unlock()
}

func (c *tcpConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.drain != nil {
		// Wake OverloadBlock senders so they fail with ErrClosed instead
		// of waiting out their deadline on a dead conn.
		c.wmu.Lock()
		c.dead = true
		c.drain.Broadcast()
		c.wmu.Unlock()
	}
	close(c.done)
	return c.nc.Close()
}
