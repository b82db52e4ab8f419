package main

// bed.go is the only file of the benchmark that imports this
// repository's packages: every test bed, every stub and every timed call
// into a layer lives here, so a change to a public API shows its whole
// effect on the benchmark in one place. The other files see beds through
// the plain-Go types and methods declared below.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rum"
	"rum/internal/aggregate"
	"rum/internal/controller"
	"rum/internal/experiments"
	"rum/internal/flowtable"
	"rum/internal/hsa"
	"rum/internal/journal"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/proxy"
	"rum/internal/sim"
	"rum/internal/switchsim"
	"rum/internal/transport"
)

// ---- generated updates on the wire --------------------------------------

const rulePriority = 100

// outputActions[p] is the shared action list "output:p"; sharing it keeps
// the generator from boxing one action per FlowMod.
var outputActions = func() [5][]of.Action {
	var a [5][]of.Action
	for p := range a {
		a[p] = []of.Action{of.ActionOutput{Port: uint16(p)}}
	}
	return a
}()

// fillFlowMod makes fm the 80-byte FlowMod for op: IPv4 nw_dst exact
// match → output:port, an add or a strict delete.
func fillFlowMod(fm *of.FlowMod, op ruleOp, xid uint32) {
	m := of.MatchAll()
	m.Wildcards &^= of.WcDLType
	m.DLType = packet.EtherTypeIPv4
	m.NWDst = [4]byte{byte(op.Dst >> 24), byte(op.Dst >> 16), byte(op.Dst >> 8), byte(op.Dst)}
	m.SetNWDstWildBits(0)
	*fm = of.FlowMod{Match: m, Command: of.FCAdd, Priority: rulePriority,
		BufferID: of.BufferNone, OutPort: of.PortNone, Actions: outputActions[op.Port]}
	if op.Del {
		fm.Command = of.FCDeleteStrict
	}
	fm.SetXID(xid)
}

// encodeOps is the generated stream in wire form (what the seed
// determinism test compares).
func encodeOps(ops []ruleOp) ([]byte, error) {
	var buf []byte
	var fm of.FlowMod
	for i, op := range ops {
		fillFlowMod(&fm, op, uint32(i+1))
		var err error
		if buf, err = of.MarshalAppend(buf, &fm); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func ackCode(wire uint16) int {
	switch wire {
	case rum.AckInstalled:
		return ackInstalled
	case rum.AckRemoved:
		return ackRemoved
	}
	return ackOther
}

func outcomeCode(o rum.Outcome) int {
	switch o {
	case rum.OutcomeInstalled:
		return ackInstalled
	case rum.OutcomeRemoved:
		return ackRemoved
	}
	return ackOther
}

// ---- counted sockets -----------------------------------------------------

// sockCounters totals the traffic of the benchmark-owned sockets on one
// side of the proxy.
type sockCounters struct{ reads, writes, bytes atomic.Int64 }

// countConn counts the syscalls and bytes of one benchmark-owned socket.
type countConn struct {
	net.Conn
	c *sockCounters
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.c.reads.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.c.writes.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair() (dialed, accepted net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
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
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	r := <-ch
	if r.err != nil {
		dialed.Close()
		return nil, nil, r.err
	}
	return dialed, r.nc, nil
}

// ---- one switch's two benchmark-owned endpoints --------------------------

// barrierXIDBase marks controller BarrierRequests; FlowMod xids count up
// from 1 and RUM reserves 0xf0000000 and above.
const barrierXIDBase = 0x80000000

// endpoint is the benchmark's view of one switch: the controller's conn
// above the layer under test and the stub switch's conn below it.
type endpoint struct {
	idx  int
	name string
	dpid uint64
	tr   *tracker
	gen  *opGen

	ctrl transport.Conn
	stub transport.Conn

	// Stub state. seen is the xid of the last FlowMod that reached the
	// stub, covered the last one a sent barrier reply covers; selfAck
	// makes the stub acknowledge FlowMods itself (rungs below RUM).
	seen, covered atomic.Uint32
	barriersSeen  atomic.Int64
	selfAck       bool
	rejected      atomic.Int64 // OpenFlow errors that are not RUM acks

	// Reused send scratch: the TCP conn encodes during SendBatch, so the
	// structs are the sender's again when it returns.
	ops    []ruleOp
	fms    []of.FlowMod
	msgs   []of.Message
	bar    of.BarrierRequest
	barSeq uint32

	// Tracing (nil log: off). ring holds the stamps of sampled updates in
	// flight; atStub is touched by the stub's reader only.
	log    *spanLog
	ring   [64]stamps
	traced []*stamps
	atStub []*stamps
}

// ringSlot is where a sampled xid's stamps live while it is in flight.
func (e *endpoint) ringSlot(xid uint32) *stamps {
	return &e.ring[(xid/traceEvery)%uint32(len(e.ring))]
}

// stampsFor returns the stamps of xid if it is a sampled update in flight.
func (e *endpoint) stampsFor(xid uint32) *stamps {
	if e.log == nil || xid%traceEvery != 0 {
		return nil
	}
	if s := e.ringSlot(xid); s.xid.Load() == xid {
		return s
	}
	return nil
}

// sendBatch sends nAdds adds, nDels strict deletes of them and
// optionally a controller barrier in one SendBatch call.
func (e *endpoint) sendBatch(nAdds, nDels int, barrier bool) error {
	e.ops = e.gen.batch(e.ops[:0], nAdds, nDels)
	n := len(e.ops)
	for len(e.fms) < n {
		e.fms = append(e.fms, of.FlowMod{})
	}
	t0 := nowNs()
	first := e.tr.reserve(n, func(i int) bool { return e.ops[i].Del }, t0)
	e.msgs, e.traced = e.msgs[:0], e.traced[:0]
	for i, op := range e.ops {
		xid := first + uint32(i)
		fillFlowMod(&e.fms[i], op, xid)
		e.msgs = append(e.msgs, &e.fms[i])
		if e.log != nil && xid%traceEvery == 0 {
			s := e.ringSlot(xid)
			for k := range s.t {
				s.t[k].Store(0)
			}
			s.t[stSendCall].Store(t0)
			s.xid.Store(xid)
			e.traced = append(e.traced, s)
		}
	}
	if barrier {
		e.barSeq++
		e.bar.SetXID(barrierXIDBase | e.barSeq)
		e.tr.addBarrier(e.bar.GetXID(), t0)
		e.msgs = append(e.msgs, &e.bar)
	}
	err := e.ctrl.(transport.BatchSender).SendBatch(e.msgs)
	if len(e.traced) > 0 {
		t1 := nowNs()
		for _, s := range e.traced {
			s.t[stSendReturn].Store(t1)
		}
	}
	return err
}

// acked records one acknowledgment seen by the controller.
func (e *endpoint) acked(xid uint32, code int) {
	e.tr.ack(xid, code)
	if s := e.stampsFor(xid); s != nil {
		s.t[stAcked].Store(nowNs())
		e.log.add(e.idx, s)
	}
}

// onCtrl is the controller conn's handler.
func (e *endpoint) onCtrl(m of.Message) {
	switch mm := m.(type) {
	case *of.Error:
		xid, code, isAck := mm.IsRUMAck()
		of.Release(mm)
		if !isAck {
			e.rejected.Add(1)
			return
		}
		e.acked(xid, ackCode(code))
	case *of.BarrierReply:
		xid := mm.GetXID()
		of.Release(mm)
		e.tr.barrierReply(xid, nowNs())
	}
}

// onStub is the instant stub switch: it installs nothing, answers
// barriers at once, and recycles what it consumed like a real switch
// agent would.
func (e *endpoint) onStub(m of.Message) {
	switch mm := m.(type) {
	case *of.FlowMod:
		xid, cmd := mm.GetXID(), mm.Command
		of.Release(mm)
		if of.IsRUMXID(xid) {
			return
		}
		e.seen.Store(xid)
		if s := e.stampsFor(xid); s != nil {
			s.t[stAtStub].Store(nowNs())
			e.atStub = append(e.atStub, s)
		}
		if e.selfAck {
			code := rum.AckInstalled
			if cmd == of.FCDeleteStrict {
				code = rum.AckRemoved
			}
			ack := of.AcquireError()
			of.FillRUMAck(ack, xid, uint16(code))
			_ = e.stub.Send(ack)
			of.Release(ack)
		}
	case *of.BarrierRequest:
		e.barriersSeen.Add(1)
		rep := of.AcquireBarrierReply()
		rep.SetXID(mm.GetXID())
		// Publish before sending: the ack this reply causes must find
		// the truth already recorded.
		e.covered.Store(e.seen.Load())
		_ = e.stub.Send(rep)
		of.Release(rep)
		of.Release(mm)
		if len(e.atStub) > 0 {
			t := nowNs()
			for _, s := range e.atStub {
				s.t[stStubReplied].Store(t)
			}
			e.atStub = e.atStub[:0]
		}
	case *of.FeaturesRequest:
		rep := &of.FeaturesReply{DatapathID: e.dpid, NTables: 1}
		rep.SetXID(mm.GetXID())
		_ = e.stub.Send(rep)
	case *of.EchoRequest:
		rep := &of.EchoReply{Data: mm.Data}
		rep.SetXID(mm.GetXID())
		_ = e.stub.Send(rep)
	}
}

// ---- loopback TCP beds ---------------------------------------------------

// What sits between the controller's conn and the stub's conn.
const (
	layerServer  = "server"  // rum.NewProxyServer: the deployment the workloads measure
	layerDirect  = "direct"  // nothing: the benchmark's own cost over transport TCP
	layerSplice  = "splice"  // proxy.NewSession with a pass-through layer
	layerRUM     = "rum"     // rum.New + AttachSwitch
	layerCluster = "cluster" // a 2-member rum.NewCluster
)

// bedSpec describes one loopback TCP bed.
type bedSpec struct {
	workload     string // names the generator streams
	seed         int64
	switches     int
	layer        string
	technique    string
	rumAware     bool
	barrierLayer bool
	ring         int    // tracker ring: at least window + batch
	stride       uint32 // latency sampling period
	trace        bool
}

// tcpBed is a set of switches proxied over loopback TCP.
type tcpBed struct {
	spec      bedSpec
	eps       []*endpoint
	swSock    sockCounters
	ctrlSock  sockCounters
	log       *spanLog
	clkOffset int64 // benchmark ns = RUM wall-clock ns + clkOffset

	r  *rum.RUM
	cl *rum.Cluster

	liveBefore int64
	closers    []io.Closer

	mu   sync.Mutex
	errs []error
}

// own registers something close must close; the controller's accept
// loop registers conns while the bed is still being built.
func (b *tcpBed) own(c io.Closer) {
	b.mu.Lock()
	b.closers = append(b.closers, c)
	b.mu.Unlock()
}

func (b *tcpBed) noteErr(err error) {
	b.mu.Lock()
	b.errs = append(b.errs, err)
	b.mu.Unlock()
}

// maxLatencySamples bounds the ack (and, separately, wave) latency
// samples one repetition keeps, in total across its switches, 4 bytes
// each: the benchmark's own heap must stay small next to the proxy's, or
// it would stretch the GC cycle the proxy is measured under.
const maxLatencySamples = 1 << 20

// newTCPBed builds the bed and returns once every switch is attached,
// identified by the controller and bootstrapped.
func newTCPBed(spec bedSpec) (*tcpBed, error) {
	b := &tcpBed{spec: spec, liveBefore: rum.LiveUpdates()}
	if spec.trace {
		b.log = newSpanLog(1 << 17)
	}
	for i := 0; i < spec.switches; i++ {
		e := &endpoint{idx: i, name: fmt.Sprintf("sw%02d", i), dpid: uint64(i + 1), log: b.log}
		e.gen = newOpGen(spec.seed, spec.workload, i, 4)
		e.tr = newTracker(spec.ring, spec.stride, maxLatencySamples/spec.switches)
		b.eps = append(b.eps, e)
	}
	clk := rum.NewWallClock()
	b.clkOffset = nowNs() - clk.Now().Nanoseconds()
	cfg := rum.Config{Clock: clk, Technique: rum.Technique(spec.technique),
		RUMAware: spec.rumAware, BarrierLayer: spec.barrierLayer}
	var err error
	if spec.layer == layerServer {
		err = b.buildServer(cfg)
	} else {
		err = b.buildSpliced(cfg, clk)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// buildServer deploys rum.NewProxyServer: the stubs dial the proxy, the
// proxy dials the benchmark's controller once per switch.
func (b *tcpBed) buildServer(cfg rum.Config) error {
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.own(ctrlLn)
	byDPID := make(map[uint64]*endpoint, len(b.eps))
	ids := make([]rum.SwitchIdentity, len(b.eps))
	for i, e := range b.eps {
		byDPID[e.dpid] = e
		ids[i] = rum.SwitchIdentity{DPID: e.dpid, Name: e.name}
		e.tr.covered = &e.covered
	}
	identified := make(chan struct{}, len(b.eps))
	go func() {
		for {
			nc, err := ctrlLn.Accept()
			if err != nil {
				return
			}
			conn := transport.NewTCP(countConn{nc, &b.ctrlSock})
			b.own(conn)
			// The proxy impersonates the switch: the controller learns
			// which one from the FeaturesReply, like any controller.
			var ep *endpoint
			conn.SetHandler(func(m of.Message) {
				if ep != nil {
					ep.onCtrl(m)
					return
				}
				if fr, ok := m.(*of.FeaturesReply); ok {
					if ep = byDPID[fr.DatapathID]; ep != nil {
						ep.ctrl = conn
						identified <- struct{}{}
					}
				}
			})
			_ = conn.Send(&of.Hello{})
			fr := &of.FeaturesRequest{}
			fr.SetXID(1)
			_ = conn.Send(fr)
		}
	}()

	srv, err := rum.NewProxyServer(rum.ProxyConfig{
		RUM:            cfg,
		Topology:       rum.NewTopology(nil),
		Switches:       ids,
		ControllerAddr: ctrlLn.Addr().String(),
		OnError:        b.noteErr,
	})
	if err != nil {
		return err
	}
	b.r = srv.RUM()
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.own(proxyLn)
	go func() { _ = srv.Serve(proxyLn) }()

	for _, e := range b.eps {
		nc, err := net.Dial("tcp", proxyLn.Addr().String())
		if err != nil {
			return err
		}
		e.stub = transport.NewTCP(countConn{nc, &b.swSock})
		b.own(e.stub)
		e.stub.SetHandler(e.onStub)
	}
	deadline := time.After(10 * time.Second)
	for range b.eps {
		select {
		case <-identified:
		case <-deadline:
			return errors.New("bed: the controller did not identify every switch within 10s")
		}
	}
	// A switch counts as attached once the proxy has spliced its session
	// and run its share of the bootstrap.
	for srv.Attached() < len(b.eps) {
		select {
		case <-deadline:
			return errors.New("bed: the proxy did not attach every switch within 10s")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// buildSpliced wires each switch by hand — controller conn, the layer
// under test, stub conn — for the ladder rungs.
func (b *tcpBed) buildSpliced(cfg rum.Config, clk rum.Clock) error {
	var err error
	switch b.spec.layer {
	case layerRUM:
		b.r, err = rum.New(cfg, rum.NewTopology(nil))
	case layerCluster:
		b.cl, err = rum.NewCluster(rum.ClusterConfig{Shards: 2, Core: cfg, Topology: rum.NewTopology(nil)})
	}
	if err != nil {
		return err
	}
	wrap := func(nc net.Conn, c *sockCounters) transport.Conn {
		conn := transport.NewTCP(countConn{nc, c})
		b.own(conn)
		return conn
	}
	for _, e := range b.eps {
		e.selfAck = b.spec.layer == layerDirect || b.spec.layer == layerSplice
		ctrlNC, upNC, err := loopbackPair()
		if err != nil {
			return err
		}
		if b.spec.layer == layerDirect {
			e.ctrl, e.stub = wrap(ctrlNC, &b.ctrlSock), wrap(upNC, &b.swSock)
		} else {
			downNC, stubNC, err := loopbackPair()
			if err != nil {
				return err
			}
			e.ctrl, e.stub = wrap(ctrlNC, &b.ctrlSock), wrap(stubNC, &b.swSock)
			up, down := transport.NewTCP(upNC), transport.NewTCP(downNC)
			b.own(up)
			b.own(down)
			switch b.spec.layer {
			case layerSplice:
				proxy.NewSession(e.name, e.dpid, clk, up, down, proxy.Pass{})
			case layerRUM:
				_, err = b.r.AttachSwitch(e.name, e.dpid, up, down)
			case layerCluster:
				_, _, err = b.cl.AttachSwitch(e.name, e.dpid, up, down)
			}
			if err != nil {
				return err
			}
		}
		e.ctrl.SetHandler(e.onCtrl)
		e.stub.SetHandler(e.onStub)
	}
	return nil
}

// close detaches every switch, closes every socket and returns how many
// pooled updates the run leaked (rum.LiveUpdates after − before).
func (b *tcpBed) close() (leak int64) {
	for _, e := range b.eps {
		switch {
		case b.cl != nil:
			b.cl.DetachSwitch(e.name, nil)
		case b.r != nil:
			b.r.DetachSwitch(e.name)
		}
	}
	b.mu.Lock()
	closers := b.closers
	b.closers = nil
	b.mu.Unlock()
	for _, c := range closers {
		_ = c.Close()
	}
	// References drop as the detached sessions' goroutines unwind.
	for wait := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		leak = rum.LiveUpdates() - b.liveBefore
		if leak == 0 || time.Now().After(wait) {
			return leak
		}
	}
}

// bedCounters are the accessors read before and after a window.
type bedCounters struct {
	probes, fallbacks, sheds uint64
	outboxHigh               int
	swBarriers               int64
	swReads, swBytes         int64
	ctrlReads, ctrlBytes     int64
	rejected                 int64
	pktOuts, pktIns, swSyncs uint64
	simSteps                 uint64
}

func (b *tcpBed) counters() bedCounters {
	var c bedCounters
	rums := []*rum.RUM{b.r}
	if b.cl != nil {
		rums = rums[:0]
		for i := 0; i < b.cl.N(); i++ {
			rums = append(rums, b.cl.Member(i))
		}
	}
	for _, r := range rums {
		if r == nil {
			continue
		}
		_, p, f := r.Stats()
		c.probes += p
		c.fallbacks += f
		c.sheds += r.OverloadSheds()
		for _, e := range b.eps {
			if hw := r.OutboxHighWater(e.name); hw > c.outboxHigh {
				c.outboxHigh = hw
			}
		}
	}
	for _, e := range b.eps {
		c.swBarriers += e.barriersSeen.Load()
		c.rejected += e.rejected.Load()
	}
	c.swReads, c.swBytes = b.swSock.reads.Load(), b.swSock.bytes.Load()
	c.ctrlReads, c.ctrlBytes = b.ctrlSock.reads.Load(), b.ctrlSock.bytes.Load()
	return c
}

// future is an ack future as the wave driver holds it.
type future = rum.UpdateHandle

// wave sends perSwitch adds to every switch in the given order, each
// registered with RUM.Watch first, and returns when every AwaitAck has:
// the consistent-update pattern, where wave n+1 waits for wave n's acks.
// It returns the time spent blocked in AwaitAck.
func (b *tcpBed) wave(order []int, perSwitch int, hs []*future) (blockedNs int64, _ []*future, err error) {
	hs = hs[:0]
	for _, i := range order {
		e := b.eps[i]
		// Watch must precede the send; the xids are the next perSwitch.
		first := e.tr.peekNext()
		for k := 0; k < perSwitch; k++ {
			hs = append(hs, b.r.Watch(e.name, first+uint32(k)))
		}
		if err := e.sendBatch(perSwitch, 0, false); err != nil {
			return 0, hs, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	k := 0
	for _, i := range order {
		e := b.eps[i]
		for n := 0; n < perSwitch; n++ {
			h := hs[k]
			k++
			t0 := nowNs()
			res, err := h.AwaitAck(ctx)
			t1 := nowNs()
			blockedNs += t1 - t0
			if err != nil {
				return blockedNs, hs, fmt.Errorf("%s xid %d: %w", e.name, h.XID(), err)
			}
			e.tr.ack(h.XID(), outcomeCode(res.Outcome))
			if s := e.stampsFor(h.XID()); s != nil {
				s.t[stAcked].Store(res.ConfirmedAt.Nanoseconds() + b.clkOffset)
				s.t[stAwaited].Store(t1)
				b.log.add(e.idx, s)
			}
		}
	}
	return blockedNs, hs, nil
}

// ---- simulated beds ------------------------------------------------------

// fatTreeCall is what one experiments.FatTreeChurn call reports.
type fatTreeCall struct {
	wallNs, churnNs    int64 // whole call; churn phase only
	updates, completed int
	simP50, simP99     time.Duration
	simElapsed         time.Duration
	probes, fallbacks  uint64
	switchBarriers     uint64
}

// fatTreeChurn runs the k=8 mixed-strategy fat-tree churn once. The
// harness builds its own 80-switch bed inside the call and takes no
// seed: every call simulates exactly the same scenario.
func fatTreeChurn() (fatTreeCall, error) {
	t0 := nowNs()
	res, err := experiments.FatTreeChurn(experiments.FatTreeChurnOpts{K: 8, UpdatesPerSwitch: 25, Mixed: true})
	if err != nil {
		return fatTreeCall{}, err
	}
	return fatTreeCall{
		wallNs: nowNs() - t0, churnNs: res.WallElapsed.Nanoseconds(),
		updates: res.Updates, completed: res.Completed,
		simP50: res.P50, simP99: res.P99, simElapsed: res.SimElapsed,
		probes: res.Probes, fallbacks: res.Fallbacks, switchBarriers: res.SwitchBarriers,
	}, nil
}

// simUpdate is one update of the triangle workload, times simulated.
type simUpdate struct {
	op            ruleOp
	xid           uint32
	sendAt, ackAt time.Duration // ackAt: the ack reaches the controller
	h             *rum.UpdateHandle
}

// triangleBed is the paper's triangle (Figure 1a) on the simulated clock
// with the HP 5406zl model as s2 — early barrier replies, 300 ms
// data-plane sync — proxied by RUM's general probing.
type triangleBed struct {
	env    *experiments.Env
	s2     *switchsim.Switch
	rules  []ruleOp // one cycle adds these, then strictly deletes them
	delOrd []int
	window int

	ups      []simUpdate
	inflight int
	acked    int
	stopping bool
	cycAcked []int       // acks per cycle
	cycDone  []cycleMark // one per finished cycle, in order
}

// cycleMark is the state at the moment a cycle's last ack arrived.
type cycleMark struct {
	wallNs int64
	c      bedCounters
}

// triangleRules is the cycle length: the paper's 300-rule table.
const triangleRules = 300

func newTriangleBed(seed int64) (*triangleBed, error) {
	env := experiments.NewTriangle(experiments.EnvConfig{
		RUM:     rum.Config{Technique: rum.TechGeneral},
		S2:      switchsim.ProfileHP5406zl(),
		AckMode: controller.AckRUM,
	})
	if err := env.Warm(); err != nil {
		return nil, err
	}
	// §5.2's starting state: a single low-priority drop-all rule.
	drop := &of.FlowMod{Command: of.FCAdd, Priority: 1, Match: of.MatchAll(),
		BufferID: of.BufferNone, OutPort: of.PortNone}
	if err := env.Client.Send("s2", drop); err != nil {
		return nil, err
	}
	env.Sim.RunFor(time.Second)

	t := &triangleBed{env: env, s2: env.Switches["s2"], window: 50}
	g := newOpGen(seed, "hw_triangle", 0, 1)
	seen := make(map[uint32]bool)
	for len(t.rules) < triangleRules {
		op := g.batch(nil, 1, 0)[0]
		op.Port = 2 // toward s3, where the probes are caught
		if !seen[op.Dst] {
			seen[op.Dst] = true
			t.rules = append(t.rules, op)
		}
	}
	// Deletes go in a seeded order, but shuffled only within blocks of one
	// window: an op on a rule is then never issued while another op on the
	// same rule is unconfirmed (its add just before, or its re-add in the
	// next cycle), which no consistent-update controller would do and no
	// probe could tell apart.
	for base := 0; base < triangleRules; base += t.window {
		for _, k := range g.r.perm(t.window) {
			t.delOrd = append(t.delOrd, base+k)
		}
	}
	return t, nil
}

// pump keeps the window full; it runs on the simulator's goroutine.
func (t *triangleBed) pump() {
	for !t.stopping && t.inflight < t.window {
		k := len(t.ups) % (2 * triangleRules)
		op := t.rules[k%triangleRules]
		if k >= triangleRules {
			op = t.rules[t.delOrd[k-triangleRules]]
			op.Del = true
		}
		// Pipes pass message structs by pointer: one FlowMod per update.
		fm := new(of.FlowMod)
		xid := t.env.Client.NewXID()
		fillFlowMod(fm, op, xid)
		fm.Actions = []of.Action{of.ActionOutput{Port: op.Port}} // the receiver's to keep
		i := len(t.ups)
		t.ups = append(t.ups, simUpdate{op: op, xid: xid, sendAt: t.env.Sim.Now(),
			h: t.env.RUM.Watch("s2", xid)})
		t.inflight++
		_ = t.env.Client.SendMod("s2", fm, func() { t.onAck(i) })
	}
}

func (t *triangleBed) onAck(i int) {
	t.ups[i].ackAt = t.env.Sim.Now()
	t.inflight--
	t.acked++
	cyc := i / (2 * triangleRules)
	for len(t.cycAcked) <= cyc {
		t.cycAcked = append(t.cycAcked, 0)
	}
	t.cycAcked[cyc]++
	if t.cycAcked[cyc] == 2*triangleRules {
		t.cycDone = append(t.cycDone, cycleMark{nowNs(), t.counters()})
	}
	t.pump()
}

// run advances the simulation until the wall-clock deadline.
func (t *triangleBed) run(untilNs int64) {
	t.pump()
	for nowNs() < untilNs {
		t.env.Sim.RunFor(10 * time.Millisecond)
	}
}

// drain stops issuing, waits (in simulated time) for the outstanding
// acks, then lets the data plane settle.
func (t *triangleBed) drain() {
	t.stopping = true
	limit := t.env.Sim.Now() + drainDeadline
	for t.inflight > 0 && t.env.Sim.Now() < limit {
		t.env.Sim.RunFor(10 * time.Millisecond)
	}
	t.env.Sim.RunFor(time.Second)
}

func (t *triangleBed) counters() bedCounters {
	var c bedCounters
	_, c.probes, c.fallbacks = t.env.RUM.Stats()
	c.sheds = t.env.RUM.OverloadSheds()
	for name, sw := range t.env.Switches {
		_, po, pi, sy := sw.Counters()
		c.pktOuts += po
		c.pktIns += pi
		c.swSyncs += sy
		c.swBarriers += int64(sw.BarriersServed())
		if hw := t.env.RUM.OutboxHighWater(name); hw > c.outboxHigh {
			c.outboxHigh = hw
		}
	}
	c.simSteps = t.env.Sim.Steps()
	return c
}

func (t *triangleBed) simNow() time.Duration { return t.env.Sim.Now() }

// triangleAudit is the ground-truth comparison after a drained run.
type triangleAudit struct {
	unacked, wrongCode, falseAcks int
	lagNs                         []float64  // ConfirmedAt − first activation, per acked update
	tableDiff                     string     // "" when the data plane holds exactly the intended FIB
	install, confirm              []interval // per update index, simulated ns (for the trace)
}

// audit compares every ack with s2's activation log and the final data
// plane with the intended FIB.
func (t *triangleBed) audit() triangleAudit {
	var a triangleAudit
	type act struct {
		at      time.Duration
		deleted bool
	}
	first := make(map[uint32]act)
	for _, ra := range t.s2.Activations() {
		if _, seen := first[ra.XID]; !seen {
			first[ra.XID] = act{ra.At, ra.Deleted}
		}
	}
	intended := make(map[uint32]bool)
	a.install = make([]interval, len(t.ups))
	a.confirm = make([]interval, len(t.ups))
	for i := range t.ups {
		u := &t.ups[i]
		if u.op.Del {
			delete(intended, u.op.Dst)
		} else {
			intended[u.op.Dst] = true
		}
		res, ok := u.h.Result()
		if !ok {
			a.unacked++
			continue
		}
		if (u.op.Del && res.Outcome != rum.OutcomeRemoved) || (!u.op.Del && res.Outcome != rum.OutcomeInstalled) {
			a.wrongCode++
		}
		ac, activated := first[u.xid]
		if !activated || ac.deleted != u.op.Del || ac.at > res.ConfirmedAt {
			a.falseAcks++
			continue
		}
		a.install[i] = interval{u.sendAt.Nanoseconds(), ac.at.Nanoseconds()}
		a.confirm[i] = interval{ac.at.Nanoseconds(), res.ConfirmedAt.Nanoseconds()}
	}
	var extra, missing int
	have := make(map[uint32]bool)
	dropAll := false
	for _, r := range t.s2.DataTable().Rules() {
		switch r.Priority {
		case rulePriority:
			d := r.Match.NWDst
			dst := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
			have[dst] = true
			if !intended[dst] {
				extra++
			}
		case 1:
			dropAll = true
		}
	}
	for dst := range intended {
		if !have[dst] {
			missing++
		}
	}
	if extra != 0 || missing != 0 || !dropAll {
		a.tableDiff = fmt.Sprintf("s2 data plane: %d rules not intended, %d intended rules missing, drop-all present=%v", extra, missing, dropAll)
	}
	return a
}

// ---- pure-function rungs -------------------------------------------------

// cycleReader replays one buffer forever.
type cycleReader struct {
	buf []byte
	off int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	if c.off == len(c.buf) {
		c.off = 0
	}
	n := copy(p, c.buf[c.off:])
	c.off += n
	return n, nil
}

// timeLoop calls step (which does n operations) until dur has passed and
// returns nanoseconds per operation.
func timeLoop(dur time.Duration, step func() (n int)) float64 {
	step() // warm pools and caches
	ops, start := 0, time.Now()
	for time.Since(start) < dur {
		ops += step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// pureRungs times single layers through their public functions, each for
// about dur, and returns per-layer metrics by name.
func pureRungs(dur time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	g := newOpGen(1, "rungs", 0, 4)
	ops := g.batch(nil, 300, 0)
	fms := make([]*of.FlowMod, len(ops))
	for i, op := range ops {
		fms[i] = new(of.FlowMod)
		fillFlowMod(fms[i], op, uint32(i+1))
	}

	// of: encode and pooled decode of the 80-byte FlowMod.
	buf := make([]byte, 0, 128)
	var encErr error
	out["of.encode_ns_per_msg"] = timeLoop(dur, func() int {
		for _, fm := range fms {
			if buf, encErr = of.MarshalAppend(buf[:0], fm); encErr != nil {
				return len(fms)
			}
		}
		return len(fms)
	})
	if encErr != nil {
		return nil, encErr
	}
	wire, err := encodeOps(ops)
	if err != nil {
		return nil, err
	}
	mr := of.NewMessageReader(&cycleReader{buf: wire})
	var decErr error
	decode := func() int {
		for range fms {
			m, err := mr.ReadMessage()
			if err != nil {
				decErr = err
				return len(fms)
			}
			of.Release(m)
		}
		return len(fms)
	}
	out["of.decode_ns_per_msg"] = timeLoop(dur, decode)
	out["of.decode_allocs_per_msg"] = allocsPer(func() int {
		n := 0
		for i := 0; i < 50; i++ {
			n += decode()
		}
		return n
	})
	if decErr != nil {
		return nil, decErr
	}

	// transport: one message through an in-memory pipe on the simulated
	// clock (send, scheduled delivery, handler).
	s := sim.New()
	a, z := transport.Pipe(s, 0)
	got := 0
	z.SetHandler(func(of.Message) { got++ })
	out["transport.pipe_ns_per_msg"] = timeLoop(dur, func() int {
		for _, fm := range fms {
			_ = a.Send(fm)
		}
		s.Run()
		return len(fms)
	})
	if got == 0 {
		return nil, errors.New("rungs: pipe delivered nothing")
	}

	// sim: the discrete-event engine, schedule + dispatch.
	s = sim.New()
	left := 0
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.After(time.Microsecond, tick)
		}
	}
	out["sim.event_ns"] = timeLoop(dur, func() int {
		left = 4096
		s.After(time.Microsecond, tick)
		s.Run()
		return 4096
	})

	// sim: the wall clock's timer wheel, schedule + cancel (what the
	// barrier-retry and timeout nets do per burst).
	wheel := sim.NewWheel(time.Millisecond)
	nop := func() {}
	out["sim.wheel_schedule_ns"] = timeLoop(dur, func() int {
		for i := 0; i < 1024; i++ {
			wheel.Schedule(time.Duration(50+i%200)*time.Millisecond, nop).Stop()
		}
		return 1024
	})

	// hsa: probe synthesis against a 300-rule table plus drop-all.
	table := make([]hsa.Rule, 0, len(fms)+1)
	for _, fm := range fms {
		table = append(table, hsa.Rule{Priority: fm.Priority, Match: fm.Match, Actions: fm.Actions})
	}
	table = append(table, hsa.Rule{Priority: 1, Match: of.MatchAll()})
	var probed of.FlowMod
	fillFlowMod(&probed, ruleOp{Dst: 10<<24 | 0xfffffe, Port: 2}, 1)
	rule := hsa.Rule{Priority: probed.Priority, Match: probed.Match, Actions: probed.Actions}
	pin := of.MatchAll()
	pin.Wildcards &^= of.WcNWTOS
	pin.NWTOS = 0x0c
	var probeErr error
	out["hsa.probe_synth_us"] = timeLoop(dur, func() int {
		for i := 0; i < 16; i++ {
			if _, err := hsa.FindProbe(rule, table, pin); err != nil {
				probeErr = err
			}
		}
		return 16
	}) / 1e3
	if probeErr != nil {
		return nil, probeErr
	}

	// flowtable: add + strict delete on a 300-entry table; lookups that
	// hit in the middle of it.
	ft := flowtable.New()
	for _, fm := range fms {
		ft.Apply(fm)
	}
	var add, del of.FlowMod
	fillFlowMod(&add, ruleOp{Dst: 10<<24 | 0xfffffd, Port: 1}, 1)
	fillFlowMod(&del, ruleOp{Dst: 10<<24 | 0xfffffd, Port: 1, Del: true}, 2)
	out["flowtable.apply_ns"] = timeLoop(dur, func() int {
		for i := 0; i < 64; i++ {
			ft.Apply(&add)
			ft.Apply(&del)
		}
		return 128
	})
	fields := packet.Fields{DLType: packet.EtherTypeIPv4, NWDst: fms[len(fms)/2].Match.NWDst}
	miss := 0
	out["flowtable.lookup_ns"] = timeLoop(dur, func() int {
		for i := 0; i < 64; i++ {
			if ft.Lookup(fields, 64) == nil {
				miss++
			}
		}
		return 64
	})
	if miss != 0 {
		return nil, errors.New("rungs: flowtable lookup missed an installed rule")
	}

	// aggregate: incremental exact-cover merging of an aligned /24 of
	// /32s sharing one action, added then removed.
	block := make([]*of.FlowMod, 0, 512)
	for _, d := range []bool{false, true} {
		for i := 0; i < 256; i++ {
			fm := new(of.FlowMod)
			fillFlowMod(fm, ruleOp{Dst: 10<<24 | 7<<8 | uint32(i), Port: 3, Del: d}, uint32(len(block)+1))
			block = append(block, fm)
		}
	}
	agg := aggregate.New()
	out["aggregate.apply_ns_per_rule"] = timeLoop(dur, func() int {
		agg.ApplyBatch(block[:256])
		agg.ApplyBatch(block[256:])
		return len(block)
	})
	if st := agg.Stats(); st.Counterexamples != 0 {
		return nil, fmt.Errorf("rungs: aggregate verifier found %d counterexamples", st.Counterexamples)
	}

	// journal: one intent record appended to a replication frame.
	rec := journal.Record{Switch: "sw00", Strategy: "barriers", Body: wire[:80]}
	frame := make([]byte, 0, 64<<10)
	out["journal.append_ns_per_intent"] = timeLoop(dur, func() int {
		frame = journal.BeginFrame(frame)
		for i := 0; i < 256; i++ {
			rec.XID, rec.Seq = uint32(i), uint64(i)
			frame = journal.AppendIntent(frame, &rec)
		}
		frame = journal.SealFrame(frame)
		return 256
	})
	return out, nil
}
