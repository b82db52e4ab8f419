// Package proxy is the transparent interception framework RUM is built on:
// a per-switch Session splices the switch-side and controller-side control
// channels through a chain of Layers. A layer can pass messages through,
// hold them, drop them, or inject new ones in either direction — the
// "more active role" (buffer, rate-limit, remove or add messages) the paper
// contrasts with FlowVisor-style slicers (§2). Layers compose like the
// paper's chain of POX proxies (§4): the barrier layer is just another
// element stacked on the acknowledgment layer.
package proxy

import (
	"sync"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// Layer processes messages crossing the proxy. Index 0 is closest to the
// controller; the last layer is closest to the switch. Implementations
// must be safe for concurrent calls when used over TCP transports.
type Layer interface {
	// FromController handles a controller→switch message. Call
	// ctx.ToSwitch to continue toward the switch.
	FromController(ctx *Context, m of.Message)
	// FromSwitch handles a switch→controller message. Call
	// ctx.ToController to continue toward the controller.
	FromSwitch(ctx *Context, m of.Message)
}

// BurstLayer is implemented by layers that amortize work across a burst
// of controller messages — everything the controller conn's reader decoded
// from one read (see transport.BurstReader). The session calls
// EndControllerBurst, top layer first, on the goroutine that delivered the
// burst, after the last FromController call of the burst returned. Every
// FromController delivery is followed by one: a controller conn without
// the burst hook ends a burst after each message, InjectFromController
// ends one after the injected message, and a layer that forwards held
// messages toward the switch on its own initiative must end the burst it
// created itself.
type BurstLayer interface {
	EndControllerBurst(ctx *Context)
}

// BatchLayer is implemented by layers that take a switch→controller batch
// in one call (see Context.ToControllerBatch); other layers receive the
// batch message by message through FromSwitch.
type BatchLayer interface {
	FromSwitchBatch(ctx *Context, ms []of.Message)
}

// Pass is a Layer that forwards everything unchanged; embed it to override
// one direction only.
type Pass struct{}

// FromController implements Layer by forwarding toward the switch.
func (Pass) FromController(ctx *Context, m of.Message) { ctx.ToSwitch(m) }

// FromSwitch implements Layer by forwarding toward the controller.
func (Pass) FromSwitch(ctx *Context, m of.Message) { ctx.ToController(m) }

// Session is one switch's proxied control channel.
type Session struct {
	name   string
	dpid   uint64
	clk    sim.Clock
	swConn transport.Conn
	ctConn transport.Conn
	layers []Layer
	ctxs   []*Context

	mu     sync.Mutex
	closed bool
}

// NewSession wires a session: ctrlConn faces the controller, swConn faces
// the switch, and layers[0] is the controller-nearest layer. Message flow
// starts immediately.
func NewSession(name string, dpid uint64, clk sim.Clock, ctrlConn, swConn transport.Conn, layers ...Layer) *Session {
	s := &Session{
		name:   name,
		dpid:   dpid,
		clk:    clk,
		swConn: swConn,
		ctConn: ctrlConn,
		layers: layers,
	}
	s.ctxs = make([]*Context, len(layers))
	bursts := false
	for i, l := range layers {
		s.ctxs[i] = &Context{s: s, idx: i}
		if _, ok := l.(BurstLayer); ok {
			bursts = true
		}
	}
	onCtrl := func(m of.Message) { s.fromController(0, m) }
	if bursts {
		if br, ok := ctrlConn.(transport.BurstReader); ok {
			br.SetBurstEnd(s.endControllerBurst)
		} else {
			// No burst hook on this conn: every message is its own burst.
			onCtrl = s.InjectFromController
		}
	}
	ctrlConn.SetHandler(onCtrl)
	swConn.SetHandler(func(m of.Message) { s.fromSwitch(len(layers)-1, m) })
	return s
}

// Name returns the switch name this session proxies.
func (s *Session) Name() string { return s.name }

// DPID returns the switch's datapath id.
func (s *Session) DPID() uint64 { return s.dpid }

// Clock returns the session clock.
func (s *Session) Clock() sim.Clock { return s.clk }

// fromController delivers m to layer idx (toward the switch).
func (s *Session) fromController(idx int, m of.Message) {
	if idx >= len(s.layers) {
		_ = s.swConn.Send(m)
		return
	}
	s.layers[idx].FromController(s.ctxs[idx], m)
}

// fromSwitch delivers m to layer idx (toward the controller).
func (s *Session) fromSwitch(idx int, m of.Message) {
	if idx < 0 {
		_ = s.ctConn.Send(m)
		return
	}
	s.layers[idx].FromSwitch(s.ctxs[idx], m)
}

// fromSwitchBatch delivers a batch to layer idx (toward the controller).
func (s *Session) fromSwitchBatch(idx int, ms []of.Message) {
	if idx < 0 {
		if bs, ok := s.ctConn.(transport.BatchSender); ok {
			_ = bs.SendBatch(ms)
			return
		}
		for _, m := range ms {
			_ = s.ctConn.Send(m)
		}
		return
	}
	if bl, ok := s.layers[idx].(BatchLayer); ok {
		bl.FromSwitchBatch(s.ctxs[idx], ms)
		return
	}
	for _, m := range ms {
		s.layers[idx].FromSwitch(s.ctxs[idx], m)
	}
}

// endControllerBurst tells every BurstLayer that the burst of controller
// messages just delivered is complete.
func (s *Session) endControllerBurst() {
	for i, l := range s.layers {
		if bl, ok := l.(BurstLayer); ok {
			bl.EndControllerBurst(s.ctxs[i])
		}
	}
}

// InjectFromController feeds a message into the top of the layer chain,
// exactly as if the controller-side conn had delivered it as a burst of
// one: every layer (barrier buffering, acknowledgment tracking) observes
// it. Recovery paths use it to re-issue in-flight modifications adopted
// from a dead proxy without bypassing the acknowledgment machinery.
func (s *Session) InjectFromController(m of.Message) {
	s.fromController(0, m)
	s.endControllerBurst()
}

// SendToSwitch injects a message below the whole chain, directly to the
// switch (used for out-of-band traffic such as probe PacketOuts on
// neighbor switches).
func (s *Session) SendToSwitch(m of.Message) { _ = s.swConn.Send(m) }

// SendToController injects a message above the whole chain, directly to
// the controller.
func (s *Session) SendToController(m of.Message) { _ = s.ctConn.Send(m) }

// Close shuts both underlying conns.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	_ = s.ctConn.Close()
	return s.swConn.Close()
}

// Context is a layer's handle on its session, bound to the layer's
// position in the chain.
type Context struct {
	s   *Session
	idx int
}

// ToSwitch continues a message toward the switch from this layer.
func (c *Context) ToSwitch(m of.Message) { c.s.fromController(c.idx+1, m) }

// ToController continues a message toward the controller from this layer.
func (c *Context) ToController(m of.Message) { c.s.fromSwitch(c.idx-1, m) }

// ToControllerBatch continues a batch toward the controller from this
// layer, in order, with the ownership rules of transport.BatchSender: the
// caller hands ms over unless the controller conn encodes frames.
func (c *Context) ToControllerBatch(ms []of.Message) { c.s.fromSwitchBatch(c.idx-1, ms) }

// Session returns the owning session.
func (c *Context) Session() *Session { return c.s }

// Clock returns the session clock.
func (c *Context) Clock() sim.Clock { return c.s.clk }
