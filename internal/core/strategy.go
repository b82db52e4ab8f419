package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rum/internal/aggregate"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/sim"
)

// Outcome is the typed result of one acknowledged rule modification.
type Outcome uint8

const (
	// OutcomeInstalled: the rule was confirmed present in the data plane.
	OutcomeInstalled Outcome = iota
	// OutcomeRemoved: the rule was confirmed absent from the data plane
	// (deletions).
	OutcomeRemoved
	// OutcomeFallback: no data-plane probe existed; the confirmation came
	// from a control-plane fallback and carries its weaker guarantee.
	OutcomeFallback
	// OutcomeFailed: the switch rejected the modification with an OpenFlow
	// error; the rule never reached the data plane.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeInstalled:
		return "installed"
	case OutcomeRemoved:
		return "removed"
	case OutcomeFallback:
		return "fallback"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// wireCode maps an outcome to the RUM-ack error code carried on the wire;
// ok is false for outcomes that never produce a positive acknowledgment.
func (o Outcome) wireCode() (code uint16, ok bool) {
	switch o {
	case OutcomeInstalled:
		return of.RUMAckInstalled, true
	case OutcomeRemoved:
		return of.RUMAckRemoved, true
	case OutcomeFallback:
		return of.RUMAckFallback, true
	default:
		return 0, false
	}
}

// Update is one tracked controller FlowMod awaiting data-plane
// confirmation. Strategies receive it in OnFlowMod and hand it back via
// StrategyContext.Confirm (or ConfirmUpTo, using its Seq).
//
// Updates are reference-counted and recycled through a pool: the ack
// layer holds a reference while the update is pending, so reading or
// confirming it during OnFlowMod — or any time before it resolves — is
// always safe. A strategy that stores an Update past the point where the
// update may resolve *outside* the strategy (a switch error, a detach,
// a confirmation from another code path) must Retain it when storing and
// Release it when done; otherwise a recycled struct could be confirmed
// or read as a different, live update. The built-in probing strategies
// retain the updates they track; ConfirmUpTo-style strategies that
// remember only Seq values need no references at all.
type Update struct {
	sw       string
	xid      uint32
	seq      uint64 // per-switch issue order
	fm       *of.FlowMod
	issuedAt time.Duration
	done     bool  // guarded by the owning ackLayer's mutex
	failErr  error // typed failure cause; written under the same mutex
	ownFM    bool  // fm came off the wire and returns to the codec pool
	stripe   uint8 // liveUpdates stripe this update is counted on
	refs     atomic.Int32

	// Aggregation fan-in state (Config.Aggregate; see aggfanin.go).
	// covered is a physical op's pooled set of retained logical updates
	// its resolution confirms or fails; it is written under the ack
	// layer's mutex while the op is pending and drained exactly once by
	// the single resolution path. aggWait counts the physical anchors a
	// logical update still waits on. aggRef/aggTrack name the physical
	// rule this op installed, for the pending-install index.
	covered  []*Update
	aggWait  atomic.Int32
	aggRef   aggregate.PhysRef
	aggTrack bool
}

var updatePool = sync.Pool{New: func() any { return new(Update) }}

// liveUpdates counts Update structs holding at least one reference — the
// pool-leak detector the reconnect/fault tests assert on: after every
// future has resolved and every switch has detached, it must return to
// its pre-workload value, or a reference was leaked (the struct would
// never recycle) or double-released (the struct would recycle while
// still reachable). The count is striped by session (each stripe on its
// own cache line) so the acquire and the final release of every update do
// not all land on one process-wide line; an update is released on the
// stripe it was acquired on, so the stripes always sum to the exact count.
var liveUpdates [liveStripes]struct {
	n atomic.Int64
	_ [56]byte
}

const liveStripes = 16

// liveStripeSeq deals sessions onto stripes round-robin.
var liveStripeSeq atomic.Uint32

// LiveUpdates reports how many tracked updates currently hold
// references. It is a debugging/verification counter: sample it before
// and after a workload whose futures have all resolved — a non-zero
// delta is a refcount leak.
func LiveUpdates() int64 {
	var n int64
	for i := range liveUpdates {
		n += liveUpdates[i].n.Load()
	}
	return n
}

// acquireUpdate returns a recycled Update holding one reference, counted
// on the given liveUpdates stripe.
func acquireUpdate(stripe uint8) *Update {
	u := updatePool.Get().(*Update)
	u.refs.Store(1)
	u.stripe = stripe
	liveUpdates[stripe].n.Add(1)
	return u
}

// Retain adds a reference, keeping the update (and its FlowMod) alive
// and un-recycled until a matching Release. See the Update type
// documentation for when strategies must call it.
func (u *Update) Retain() { u.refs.Add(1) }

// Release drops a reference taken by Retain (or handed over by the ack
// layer). When the last reference drops the struct is recycled; callers
// must not touch u afterwards.
func (u *Update) Release() {
	n := u.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("core: Update released more often than retained")
	}
	if u.covered != nil {
		// Safety net: a resolved physical op drains its covered set in
		// fanInCovered before the emission reference drops, so this only
		// fires if an op is released without ever resolving — the
		// references still must drop or the pooled updates leak.
		releaseCovered(u)
	}
	if u.ownFM && u.fm != nil {
		of.Release(u.fm)
	}
	stripe := u.stripe
	*u = Update{}
	liveUpdates[stripe].n.Add(-1)
	updatePool.Put(u)
}

// Switch returns the name of the switch the modification targets.
func (u *Update) Switch() string { return u.sw }

// XID returns the controller's transaction id for the FlowMod.
func (u *Update) XID() uint32 { return u.xid }

// Seq returns the per-switch issue order (1, 2, ...); order-preserving
// strategies confirm prefixes of it with ConfirmUpTo.
func (u *Update) Seq() uint64 { return u.seq }

// FlowMod returns the tracked modification. Strategies must treat it as
// read-only.
func (u *Update) FlowMod() *of.FlowMod { return u.fm }

// IssuedAt returns the clock time the modification was forwarded toward
// the switch.
func (u *Update) IssuedAt() time.Duration { return u.issuedAt }

// StrategyContext is a per-switch strategy's handle on its RUM deployment:
// the switch it serves, the clock, probe routing around the switch, and
// the confirmation sinks. All methods are safe for concurrent use.
type StrategyContext interface {
	// Switch returns the name of the switch this strategy instance serves.
	Switch() string
	// Clock returns the deployment clock (simulated or wall).
	Clock() sim.Clock
	// Config returns the effective (defaulted) RUM configuration.
	Config() Config
	// Topology returns RUM's inter-switch link map.
	Topology() *Topology
	// NewXID allocates a RUM-internal transaction id; replies carrying it
	// never reach the controller.
	NewXID() uint32
	// SendToSwitch sends a message down this switch's control channel.
	SendToSwitch(m of.Message)
	// Inject sends a message down another attached switch's control
	// channel (probe PacketOuts via a neighbor). It reports whether the
	// switch was attached.
	Inject(sw string, m of.Message) bool
	// Confirm marks one update as resolved with the given outcome,
	// emitting the fine-grained ack, resolving ack futures, and publishing
	// an AckEvent.
	Confirm(u *Update, outcome Outcome)
	// ConfirmUpTo confirms every unresolved update with Seq <= seq
	// (order-preserving strategies).
	ConfirmUpTo(seq uint64, outcome Outcome)
	// ConfirmedThrough returns this switch's contiguous confirmed
	// prefix: every update with Seq <= the returned value has resolved.
	// The gap to the newest Seq is the switch's outstanding work — what
	// work-proportional safety bounds (Config.TimeoutRate) scale by.
	ConfirmedThrough() uint64
	// ScheduleTick arranges a single OnTick callback on the strategy after
	// d has elapsed. Periodic strategies re-arm from inside OnTick.
	ScheduleTick(d time.Duration)
	// Injector picks the neighbor switch used to inject probe packets
	// toward this switch, returning its name and its port facing this
	// switch.
	Injector() (sw string, port uint16, ok bool)
	// Receiver picks the neighbor switch whose probe-catch rule collects
	// probes forwarded by this switch, returning its name and this
	// switch's port toward it.
	Receiver() (sw string, port uint16, ok bool)
	// Attached reports whether the named switch is attached to RUM.
	Attached(sw string) bool
	// CatchTos returns the general-probing probe-catch ToS value of a
	// switch (derived from its topology color).
	CatchTos(sw string) uint8
	// NoteProbe counts n injected probe packets and publishes a
	// ProbeEvent for this switch.
	NoteProbe(n int)
	// NoteFallback counts one control-plane fallback and publishes a
	// FallbackEvent for the update.
	NoteFallback(u *Update)
}

// SwitchStrategy is the per-switch half of an AckStrategy: the hook set
// through which RUM drives an acknowledgment technique. Embed
// BaseSwitchStrategy for no-op defaults of everything but OnFlowMod.
type SwitchStrategy interface {
	// OnFlowMod is invoked after a controller FlowMod has been forwarded
	// toward the switch. The strategy must eventually Confirm it (or leave
	// it unresolved forever, like the broken baseline would on a dead
	// switch).
	OnFlowMod(u *Update)
	// OnBarrierReply is invoked for every BarrierReply arriving from the
	// switch; returning true consumes the reply (it never reaches the
	// controller).
	OnBarrierReply(rep *of.BarrierReply) bool
	// OnProbe is invoked for every PacketIn from the switch that parses as
	// a data-plane packet; returning true consumes it as a probe result.
	// Probes not claimed here are offered to every deployment implementing
	// ProbeRouter (cross-switch probe collection).
	OnProbe(pin *of.PacketIn, f packet.Fields) bool
	// OnTick is invoked once per ScheduleTick request with the current
	// clock time.
	OnTick(now time.Duration)
}

// AckStrategy builds per-switch acknowledgment strategies. One AckStrategy
// value serves one RUM instance: state shared across switches (e.g. the
// sequential technique's probe-rule version space) lives on it, per-switch
// state on the SwitchStrategy values it creates. Register implementations
// with RegisterStrategy to select them by name via Config.Technique and
// Config.PerSwitch.
type AckStrategy interface {
	// Name identifies the strategy (diagnostics, Config reporting).
	Name() string
	// ForSwitch creates the strategy instance for one attached switch.
	ForSwitch(sc StrategyContext) SwitchStrategy
}

// SwitchBootstrapper is implemented by SwitchStrategy instances that
// preinstall infrastructure rules; RUM.Bootstrap invokes it once per
// attached switch.
type SwitchBootstrapper interface {
	Bootstrap() error
}

// ResolutionObserver is implemented by SwitchStrategy instances that
// keep per-update state (outstanding probes, batches). The ack layer
// invokes it for every resolution — including ones the strategy did not
// initiate, such as a switch error failing the update or DetachSwitch —
// so the strategy can drop state that would otherwise wait forever for a
// signal that cannot come.
type ResolutionObserver interface {
	OnUpdateResolved(u *Update, outcome Outcome)
}

// BurstEnder is implemented by SwitchStrategy instances that coalesce
// work across a dispatch burst: RUM invokes OnBurstEnd once after the
// last OnFlowMod of every burst — a read burst of the controller's
// connection under a wall clock (on the goroutine that delivered it), one
// instant under the simulated clock. The barrier techniques use it to
// cover a whole burst with a single barrier.
type BurstEnder interface {
	OnBurstEnd()
}

// NeighborBootstrapper is implemented by SwitchStrategy instances that
// install infrastructure rules on switches other than their own (probe
// catch rules on receivers). RUM.BootstrapSwitch invokes it on every
// other attached switch's strategy so a reconnecting switch — possibly
// back with an empty flow table — gets its neighbors' rules reinstalled
// even when its own strategy installs nothing.
type NeighborBootstrapper interface {
	BootstrapNeighbor(sw string)
}

// SwitchDetacher is implemented by SwitchStrategy instances that hold
// state in a shared deployment; RUM.DetachSwitch invokes it so the
// departing switch's probes, epochs, and timers are torn down instead of
// lingering (and, for the sequential technique, pinning shared probe-rule
// versions forever).
type SwitchDetacher interface {
	Detach()
}

// ProbeRouter is implemented by AckStrategy deployments whose probe
// packets surface at switches other than the probed one. When a PacketIn
// is not consumed by the arrival switch's own strategy, every deployment's
// RouteProbe is offered the packet; returning true consumes it. This is
// what lets heterogeneous per-switch mixes work: a probe collected by a
// switch running the timeout strategy still reaches the probing
// deployment.
type ProbeRouter interface {
	RouteProbe(recv string, pin *of.PacketIn, f packet.Fields) bool
}

// BaseSwitchStrategy provides no-op defaults for every SwitchStrategy hook
// except OnFlowMod; embed it in strategies that only need a subset.
type BaseSwitchStrategy struct{}

// OnBarrierReply implements SwitchStrategy with a pass-through.
func (BaseSwitchStrategy) OnBarrierReply(*of.BarrierReply) bool { return false }

// OnProbe implements SwitchStrategy with a pass-through.
func (BaseSwitchStrategy) OnProbe(*of.PacketIn, packet.Fields) bool { return false }

// OnTick implements SwitchStrategy as a no-op.
func (BaseSwitchStrategy) OnTick(time.Duration) {}

// StrategyFactory builds an AckStrategy deployment from an effective
// (defaulted) configuration.
type StrategyFactory func(cfg Config) AckStrategy

var (
	strategyMu  sync.RWMutex
	strategyReg = make(map[string]StrategyFactory)
)

// RegisterStrategy makes a strategy selectable by name via
// Config.Technique and Config.PerSwitch. It panics on an empty name or a
// duplicate registration (like database/sql.Register).
func RegisterStrategy(name string, f StrategyFactory) {
	if name == "" || f == nil {
		panic("core: RegisterStrategy with empty name or nil factory")
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[name]; dup {
		panic(fmt.Sprintf("core: RegisterStrategy called twice for %q", name))
	}
	strategyReg[name] = f
}

// StrategyNames lists the registered strategy names in sorted order.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	out := make([]string, 0, len(strategyReg))
	for n := range strategyReg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// newRegisteredStrategy instantiates a registered strategy by name.
func newRegisteredStrategy(name Technique, cfg Config) (AckStrategy, error) {
	strategyMu.RLock()
	f, ok := strategyReg[string(name)]
	strategyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown ack strategy %q (registered: %v)", name, StrategyNames())
	}
	return f(cfg), nil
}

// strategyCtx implements StrategyContext over a session.
type strategyCtx struct {
	s *session
}

func (c strategyCtx) Switch() string      { return c.s.name }
func (c strategyCtx) Clock() sim.Clock    { return c.s.rum.cfg.Clock }
func (c strategyCtx) Config() Config      { return c.s.rum.cfg }
func (c strategyCtx) Topology() *Topology { return c.s.rum.topo }
func (c strategyCtx) NewXID() uint32      { return c.s.rum.newXID() }

func (c strategyCtx) SendToSwitch(m of.Message) { c.s.sendToSwitch(m) }

func (c strategyCtx) Inject(sw string, m of.Message) bool {
	t, ok := c.s.rum.sessionByName(sw)
	if !ok {
		return false
	}
	t.sendToSwitch(m)
	return true
}

func (c strategyCtx) Confirm(u *Update, outcome Outcome) { c.s.ack.confirm(u, outcome) }

func (c strategyCtx) ConfirmUpTo(seq uint64, outcome Outcome) {
	c.s.ack.confirmUpTo(seq, outcome)
}

func (c strategyCtx) ConfirmedThrough() uint64 { return c.s.ack.confirmedThrough() }

func (c strategyCtx) ScheduleTick(d time.Duration) {
	clk := c.Clock()
	s := c.s
	clk.After(d, func() { s.strat.OnTick(clk.Now()) })
}

func (c strategyCtx) Injector() (string, uint16, bool) { return c.s.injector() }
func (c strategyCtx) Receiver() (string, uint16, bool) { return c.s.receiver() }

func (c strategyCtx) Attached(sw string) bool {
	_, ok := c.s.rum.sessionByName(sw)
	return ok
}

func (c strategyCtx) CatchTos(sw string) uint8 { return c.s.rum.CatchTos(sw) }

func (c strategyCtx) NoteProbe(n int) { c.s.rum.noteProbes(c.s.name, n) }

func (c strategyCtx) NoteFallback(u *Update) { c.s.rum.noteFallback(u) }

var _ StrategyContext = strategyCtx{}
