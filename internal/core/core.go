// Package core implements RUM (Rule Update Monitoring): a transparent
// layer between an SDN controller and its OpenFlow switches that
// acknowledges a rule modification only once the rule is visible in the
// data plane — never sooner. The paper's five acknowledgment techniques
// (§3) are pluggable AckStrategy implementations selected through a
// registry; fine-grained per-rule acks are delivered as reserved-code
// OpenFlow errors (§4) and as typed, awaitable AckResults; a reliable
// barrier layer (§2) restores barrier semantics on switches that answer
// early or reorder.
//
// The hot path is sharded per switch, with O(1) seq-ring acknowledgment
// bookkeeping and pooled, reference-counted updates; failure and
// recovery are first-class — a lost control channel or a switch restart
// detaches the session and resolves every in-flight future with a typed
// cause (ErrChannelLost, ErrSwitchRestarted), and each strategy carries
// a liveness net so lossy channels cannot wedge confirmations. The
// canonical long-form references are docs/ARCHITECTURE.md (stack,
// FlowMod lifecycle, concurrency model, ownership contracts) and
// docs/STRATEGIES.md (per-technique guarantees and fault behavior).
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rum/internal/aggregate"
	"rum/internal/hsa"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/proxy"
	"rum/internal/sim"
	"rum/internal/transport"
)

// Technique names a registered acknowledgment strategy. The zero value
// selects the barrier baseline. User strategies registered with
// RegisterStrategy are selectable by their registration name.
type Technique string

// The acknowledgment techniques of §3 of the paper, pre-registered in
// the strategy registry.
const (
	// TechBarriers trusts the switch's barrier replies (the broken
	// baseline of §3.1).
	TechBarriers Technique = "barriers"
	// TechTimeout waits a fixed worst-case delay after each barrier reply.
	TechTimeout Technique = "timeout"
	// TechAdaptive estimates activation from a switch performance model
	// (issue rate + sync period).
	TechAdaptive Technique = "adaptive"
	// TechSequential confirms batches with a versioned probe rule
	// (§3.2.1); valid for switches that do not reorder across barriers.
	TechSequential Technique = "sequential"
	// TechGeneral probes every modification individually (§3.2.2); valid
	// even for reordering switches.
	TechGeneral Technique = "general"
	// TechNoWait acknowledges immediately on forwarding — the
	// no-guarantees lower bound the evaluation compares against.
	TechNoWait Technique = "no-wait"
)

func (t Technique) String() string {
	if t == "" {
		return string(TechBarriers)
	}
	return string(t)
}

// Config parameterizes a RUM instance.
type Config struct {
	Clock sim.Clock

	// Technique names the registered strategy used for switches without a
	// more specific selection. Empty selects TechBarriers.
	Technique Technique

	// Strategy, when non-nil, supplies the default strategy directly —
	// user-defined strategies need not be registered. It overrides
	// Technique, and must not be shared across RUM instances.
	Strategy AckStrategy

	// PerSwitch overrides the strategy for individual switches by
	// registered name, so heterogeneous deployments can mix techniques
	// (the adaptive technique is explicitly switch-model-specific).
	// Switches using the same name share one AckStrategy deployment.
	PerSwitch map[string]Technique

	// RUMAware controllers receive per-rule positive acknowledgments as
	// OpenFlow errors with type of.ErrTypeRUMAck.
	RUMAware bool

	// Timeout is the fixed delay of TechTimeout and the control-plane
	// fallback of TechGeneral (default 300 ms — the paper's bound for a
	// 300-rule table).
	Timeout time.Duration

	// TimeoutRate, when > 0, makes TechTimeout's post-barrier safety
	// delay proportional to the outstanding work instead of always
	// charging the full worst case: a barrier reply covering n
	// still-unconfirmed modifications waits n/TimeoutRate seconds
	// (clamped to Timeout, floored at the timer-wheel tick). The paper's
	// fixed 300 ms bound is the worst case for a full 300-rule table —
	// an implied floor of 1000 installs/sec; TimeoutRate applies that
	// same per-rule conservatism to the actual queue depth, so a 25-rule
	// burst is held 25 ms, not 300. It is what keeps the fat-tree churn
	// workload's ack-latency tail flat. Zero keeps the paper's fixed
	// delay.
	TimeoutRate float64

	// BarrierRetry is the liveness net of the barrier-reply techniques
	// (TechBarriers, TechTimeout): when covered work is outstanding and
	// the confirmed watermark has not advanced for a full interval, the
	// strategy re-emits a fresh barrier covering the same work instead
	// of waiting forever — on a lossy control channel a dropped
	// BarrierRequest or BarrierReply would otherwise wedge every
	// covered future. The progress check keeps the net silent on a
	// healthy channel, even under sustained load (default 500 ms, far
	// above any normal inter-confirmation gap). Negative disables it,
	// restoring the trust-one-barrier behavior.
	BarrierRetry time.Duration

	// AssumedRate is TechAdaptive's modeled switch installation rate in
	// rules/second (the paper evaluates 200 and 250).
	AssumedRate float64
	// ModelSyncPeriod is TechAdaptive's modeled data-plane sync period;
	// estimated activations round up to its multiples. Zero models a
	// switch without batched syncs.
	ModelSyncPeriod time.Duration
	// ModelSyncSlack pads the modeled activation beyond the sync boundary
	// (hardware stalls briefly while pushing rules). Defaults to 30 ms
	// when ModelSyncPeriod is set.
	ModelSyncSlack time.Duration

	// ProbeEvery is TechSequential's batch size: one probe-rule update per
	// N real modifications (the evaluation uses 10).
	ProbeEvery int
	// ProbeFlush bounds how long a partial batch may wait before being
	// probed anyway.
	ProbeFlush time.Duration
	// ProbeResend is the probe packet (re)injection period for
	// TechSequential.
	ProbeResend time.Duration

	// ProbeInterval is TechGeneral's probing tick (the evaluation probes
	// every 10 ms).
	ProbeInterval time.Duration
	// ProbeBatch bounds how many of the oldest unconfirmed modifications
	// are probed per tick (the evaluation uses 30).
	ProbeBatch int
	// QuietRounds is how many silent probe rounds confirm an
	// absence-signalled change (rule deletions, drop-rule installs).
	QuietRounds int

	// BarrierLayer enables the reliable barrier layer: controller barriers
	// are absorbed and answered only when every prior modification is
	// confirmed.
	BarrierLayer bool
	// BufferForReorder additionally buffers all commands that follow an
	// unconfirmed barrier before releasing them to the switch — required
	// for switches that reorder across barriers (§2).
	BufferForReorder bool

	// OutboxLimit bounds each per-switch shard outbox: the number of
	// switch-bound messages queued awaiting flush. Zero keeps the
	// historical unbounded behavior. When set, tracked controller
	// FlowMods that arrive at a full outbox get the Overload policy's
	// treatment; RUM-internal messages (barriers, probes) always enqueue —
	// barrier coalescing already bounds them.
	OutboxLimit int
	// Overload selects what happens to a tracked FlowMod arriving at a
	// full outbox: OverloadBlock (default — the dispatch goroutine waits
	// up to OverloadDeadline for the outbox to drain, propagating
	// backpressure into the controller's channel), OverloadShed (the
	// update's future fails immediately with ErrOverloaded), or
	// OverloadDegrade (flush-latency EWMA slow-switch detection widens
	// the batch coalescing window; at the hard limit it blocks like
	// OverloadBlock). Under a simulated clock Block cannot wait — the
	// event loop is single-threaded — so it degrades to immediate
	// deadline expiry (a typed ErrOverloaded, never a wedge). See
	// docs/OVERLOAD.md for the full contract.
	Overload OverloadPolicy
	// OverloadDeadline bounds how long OverloadBlock (and Degrade at the
	// limit) waits for outbox space before failing the update with
	// ErrOverloaded (default 100ms).
	OverloadDeadline time.Duration
	// DegradeLatency is OverloadDegrade's slow-switch threshold: when the
	// EWMA of outbox drain latency exceeds it, the shard widens its
	// coalescing window to DegradeHold (default 5ms).
	DegradeLatency time.Duration
	// DegradeHold is the widened flush delay applied to a degraded
	// switch, and the retry interval after a transport applied
	// backpressure mid-batch (default 2ms).
	DegradeHold time.Duration

	// Aggregate enables incremental FIB aggregation (internal/aggregate):
	// controller FlowMods mutate a per-switch logical table whose
	// compressed physical image is what actually reaches the switch.
	// Each tracked physical install carries the set of logical futures it
	// covers; its confirmation fans in to resolve them all (per-future
	// issue timestamps preserved), and a physical failure fails every
	// covered future with the physical op's typed cause. Because only
	// physical ops occupy the ack layer's seq ring, work-proportional
	// bounds (TimeoutRate) and barrier intervals count physical installs —
	// a compressed burst holds barriers and timeout cohorts for fewer
	// rules than the controller issued. Logical staging coalesces one
	// dispatch burst per batch: a clock instant under a simulated clock,
	// a read burst of the controller's connection under a wall clock.
	// See docs/AGGREGATION.md.
	Aggregate bool
}

// Defaults fills unset fields with the paper's evaluation parameters.
func (c Config) Defaults() Config {
	if c.Technique == "" {
		c.Technique = TechBarriers
	}
	if c.Timeout == 0 {
		c.Timeout = 300 * time.Millisecond
	}
	if c.BarrierRetry == 0 {
		c.BarrierRetry = 500 * time.Millisecond
	}
	if c.AssumedRate == 0 {
		c.AssumedRate = 200
	}
	if c.ModelSyncPeriod > 0 && c.ModelSyncSlack == 0 {
		c.ModelSyncSlack = 30 * time.Millisecond
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 10
	}
	if c.ProbeFlush == 0 {
		c.ProbeFlush = 50 * time.Millisecond
	}
	if c.ProbeResend == 0 {
		c.ProbeResend = 5 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 10 * time.Millisecond
	}
	if c.ProbeBatch == 0 {
		c.ProbeBatch = 30
	}
	if c.QuietRounds == 0 {
		c.QuietRounds = 3
	}
	if c.OverloadDeadline == 0 {
		c.OverloadDeadline = 100 * time.Millisecond
	}
	if c.DegradeLatency == 0 {
		c.DegradeLatency = 5 * time.Millisecond
	}
	if c.DegradeHold == 0 {
		c.DegradeHold = 2 * time.Millisecond
	}
	return c
}

// OverloadPolicy is the shared overload policy type (the transport's
// writer bound uses the same one); re-exported so core callers need not
// import transport for the constants.
type OverloadPolicy = transport.OverloadPolicy

// The overload policies, re-exported from transport.
const (
	OverloadBlock   = transport.OverloadBlock
	OverloadShed    = transport.OverloadShed
	OverloadDegrade = transport.OverloadDegrade
)

// TopoLink is one inter-switch link RUM knows about.
type TopoLink struct {
	A     string
	APort uint16
	B     string
	BPort uint16
}

// Topology is RUM's map of the switch-to-switch fabric: which port of
// which switch reaches which neighbor. Host-facing ports are simply
// absent. The probing techniques use it to pick injection (A) and
// receiving (C) switches around each probed switch (B).
type Topology struct {
	links []TopoLink
}

// NewTopology builds a topology from a link list.
func NewTopology(links []TopoLink) *Topology {
	return &Topology{links: append([]TopoLink(nil), links...)}
}

// Neighbors returns the neighbor switches of sw as (localPort → neighbor).
func (t *Topology) Neighbors(sw string) map[uint16]string {
	out := make(map[uint16]string)
	for _, l := range t.links {
		if l.A == sw {
			out[l.APort] = l.B
		}
		if l.B == sw {
			out[l.BPort] = l.A
		}
	}
	return out
}

// PortToward returns sw's port that reaches neighbor nb (ok=false when not
// adjacent).
func (t *Topology) PortToward(sw, nb string) (uint16, bool) {
	for _, l := range t.links {
		if l.A == sw && l.B == nb {
			return l.APort, true
		}
		if l.B == sw && l.A == nb {
			return l.BPort, true
		}
	}
	return 0, false
}

// Switches lists all switch names in deterministic order.
func (t *Topology) Switches() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range t.links {
		for _, n := range []string{l.A, l.B} {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Probe header-space constants. The paper's prototype reserves ToS values
// for probing (§4: "we rely on the ToS field... only 64 ToS values, we
// need to periodically recycle them"). OpenFlow 1.0 matches nw_tos exactly
// (no masks), so the two probe header fields H1/H2 map to:
//
//   - H1 — a reserved probe-sink destination address (ProbeSinkIP): the
//     sequential technique's preprobe/postprobe discriminator is the ToS
//     value, and the sink address keeps probe traffic out of every normal
//     rule.
//   - H2 — the ToS byte, carrying either the sequential probe-rule
//     version or the general technique's per-switch probe-catch value S_i.
var (
	// ProbeSinkIP is the reserved destination of sequential probe packets.
	ProbeSinkIP = netip.MustParseAddr("10.255.255.254")
	// ProbeSrcIP is the source address stamped on RUM probe packets.
	ProbeSrcIP = netip.MustParseAddr("10.255.255.253")
)

const (
	// TosPreprobe marks a sequential probe packet that has not yet passed
	// the probed switch's probe rule.
	TosPreprobe uint8 = 0xfc
	// Sequential probe-rule versions cycle over DSCP-style values
	// 0x04..0xf8 (62 values, excluding 0 and TosPreprobe).
	tosVersionBase  uint8 = 0x04
	tosVersionCount       = 61

	// General probe-catch values S_i = tosCatchBase + 4*color.
	tosCatchBase uint8 = 0x08

	// PrioCatch/PrioProbe are the priorities of RUM's infrastructure
	// rules; user rules must stay below PrioCatch.
	PrioCatch uint16 = 65000
	PrioProbe uint16 = 65100
)

// rumXIDBase marks transaction ids RUM generates for its own messages;
// replies carrying them are consumed by RUM and never reach the
// controller. Controllers must allocate xids below this base. The range
// itself is defined next to the wire protocol (of.RUMXIDBase) so
// switch-side code can recognize RUM traffic without importing core.
const rumXIDBase = of.RUMXIDBase

// IsRUMXID reports whether an xid belongs to RUM's reserved range.
func IsRUMXID(x uint32) bool { return of.IsRUMXID(x) }

// RUM is one deployment of the monitoring layer across a set of switches.
//
// Concurrency: the hot path is sharded per switch. Each switch's pending
// updates, ack futures, and outbound message queue live on its shard (see
// shard), guarded by that shard's mutex alone; cross-switch state is
// lock-free (atomic xid allocation and counters, both touched once per
// confirmed batch rather than once per update) or read-mostly (the
// copy-on-write subscriber list). The RUM-level mutex mu guards only the
// cold paths — attach, detach, bootstrap — so no global lock is ever held
// across strategy code or message sends.
type RUM struct {
	cfg  Config
	topo *Topology

	defaultStrat AckStrategy
	strats       map[Technique]AckStrategy // named deployments incl. overrides
	deployments  []AckStrategy             // distinct deployments, probe-routing order
	colors       map[string]int            // general probing: switch → color index (read-only after New)

	mu     sync.Mutex // cold path: attach/detach/bootstrap serialization
	shards sync.Map   // switch name → *shard; entries persist across reattach

	nextXID atomic.Uint32

	// subs is the copy-on-write subscriber list: publishers load the
	// current snapshot, Subscribe/Close replace it under subsMu.
	subsMu sync.Mutex
	subs   atomic.Pointer[[]*Subscription]

	// scheduled is set under the simulated clock, whose discrete-event
	// engine runs every callback on one thread: outbox drains and burst
	// ends are clock events there (an instant is the burst) and nothing
	// may wait. Under any other clock the goroutine that delivered a burst
	// ends it and drains.
	scheduled bool

	// Overload gates, resolved once in New so the hot path pays a single
	// bool load when the bound is off. degradeOn implies overloadOn.
	overloadOn bool
	degradeOn  bool

	// journal is the intent-replication sink (SetJournalSink); sessions
	// latch its presence at attach.
	journal JournalSink

	// stats
	acksSent   atomic.Uint64
	probesSent atomic.Uint64
	fallbacks  atomic.Uint64
	sheds      atomic.Uint64
}

// New creates a RUM instance, resolving the configured default and
// per-switch strategies against the registry. Switches are attached with
// AttachSwitch; probe infrastructure is installed with Bootstrap.
func New(cfg Config, topo *Topology) (*RUM, error) {
	cfg = cfg.Defaults()
	r := &RUM{
		cfg:    cfg,
		topo:   topo,
		strats: make(map[Technique]AckStrategy),
	}
	r.nextXID.Store(rumXIDBase)
	_, r.scheduled = cfg.Clock.(*sim.Sim)
	r.overloadOn = cfg.OutboxLimit > 0
	r.degradeOn = r.overloadOn && cfg.Overload == OverloadDegrade
	if cfg.Strategy != nil {
		r.defaultStrat = cfg.Strategy
		r.cfg.Technique = Technique(cfg.Strategy.Name())
		// A PerSwitch entry naming this strategy must resolve to the same
		// deployment, not a fresh registry instance with disjoint state.
		r.strats[r.cfg.Technique] = cfg.Strategy
	} else {
		s, err := newRegisteredStrategy(cfg.Technique, r.cfg)
		if err != nil {
			return nil, err
		}
		r.defaultStrat = s
		r.strats[cfg.Technique] = s
	}
	r.deployments = append(r.deployments, r.defaultStrat)
	overrides := make([]string, 0, len(cfg.PerSwitch))
	for sw := range cfg.PerSwitch {
		overrides = append(overrides, sw)
	}
	sort.Strings(overrides)
	for _, sw := range overrides {
		name := cfg.PerSwitch[sw]
		if name == "" {
			return nil, fmt.Errorf("core: PerSwitch[%q] names no strategy", sw)
		}
		if _, done := r.strats[name]; done {
			continue
		}
		s, err := newRegisteredStrategy(name, r.cfg)
		if err != nil {
			return nil, fmt.Errorf("core: PerSwitch[%q]: %w", sw, err)
		}
		r.strats[name] = s
		r.deployments = append(r.deployments, s)
	}

	adj := make(map[uint64][]uint64)
	names := topo.Switches()
	idx := make(map[string]uint64, len(names))
	for i, n := range names {
		idx[n] = uint64(i)
		adj[uint64(i)] = nil
	}
	for _, l := range topo.links {
		adj[idx[l.A]] = append(adj[idx[l.A]], idx[l.B])
	}
	colors := hsa.ColorGraph(adj)
	r.colors = make(map[string]int, len(names))
	for n, i := range idx {
		r.colors[n] = colors[i]
	}
	return r, nil
}

// Config returns the effective (defaulted) configuration.
func (r *RUM) Config() Config { return r.cfg }

// CatchTos returns the general-probing probe-catch ToS value S for a
// switch (derived from its graph color, §3.2.2's value-reduction trick).
func (r *RUM) CatchTos(sw string) uint8 {
	return tosCatchBase + 4*uint8(r.colors[sw])
}

// newXID allocates a RUM-internal transaction id.
func (r *RUM) newXID() uint32 { return r.newXIDs(1) }

// newXIDs reserves n consecutive RUM-internal transaction ids with one
// atomic operation and returns the first. Xids are the one piece of
// cross-switch hot-path state left, so a confirmed batch takes its acks'
// xids as one block instead of hitting the shared counter per ack.
func (r *RUM) newXIDs(n uint32) uint32 {
	for {
		last := r.nextXID.Add(n)
		first := last - n + 1
		if first > rumXIDBase && first <= last {
			return first
		}
		// The block wrapped around uint32 space (or started below the
		// reserved range after a wrap): park the counter back at the base
		// and retry (losers of the CAS retry on the fresh value).
		r.nextXID.CompareAndSwap(last, rumXIDBase)
	}
}

// shardFor returns (creating on first use) the named switch's shard.
func (r *RUM) shardFor(name string) *shard {
	if v, ok := r.shards.Load(name); ok {
		return v.(*shard)
	}
	v, _ := r.shards.LoadOrStore(name, &shard{r: r, name: name})
	return v.(*shard)
}

// strategyFor resolves the deployment serving one switch.
func (r *RUM) strategyFor(name string) AckStrategy {
	if t, ok := r.cfg.PerSwitch[name]; ok {
		if s, ok := r.strats[t]; ok {
			return s
		}
	}
	return r.defaultStrat
}

// AttachSwitch splices RUM between a switch-side conn and a
// controller-side conn, instantiating the switch's configured ack
// strategy. The layer chain is
// controller → [barrier layer] → ack layer → switch.
// Attaching two switches under one name is an error.
func (r *RUM) AttachSwitch(name string, dpid uint64, ctrlConn, swConn transport.Conn) (*proxy.Session, error) {
	// Attach and detach serialize on the cold-path mutex for their whole
	// duration, so a session observed through a shard is always fully
	// built. Hot-path traffic (already-attached switches) never takes mu.
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shardFor(name)
	if sh.session() != nil {
		return nil, fmt.Errorf("core: switch %q already attached", name)
	}

	s := &session{rum: r, name: name, shard: sh, swConn: swConn, ctConn: ctrlConn}
	if r.cfg.Aggregate {
		// A fresh logical/physical pair per attach: a reattaching switch
		// is assumed to need its FIB replayed (the restart recovery
		// model), so stale aggregation state must not survive the session.
		s.agg = aggregate.New()
	}
	// Pool-recycling release points depend on who owns message structs:
	// frame-encoding conns copy to wire bytes during Send, so RUM regains
	// exclusive ownership of acks it emits upward and — when the decode
	// side is also RUM's own (both conns encode) — of the tracked
	// FlowMods it decoded. Pipes pass pointers and keep shared ownership.
	s.recycleAcks = transport.EncodesFrames(ctrlConn)
	s.reuseBatch = transport.EncodesFrames(swConn)
	s.recycleFM = s.recycleAcks && s.reuseBatch
	s.liveStripe = uint8(liveStripeSeq.Add(1) % liveStripes)
	al := newAckLayer(s)
	al.journalOn = r.journal != nil
	s.ack = al
	s.techName = r.strategyFor(name).Name()
	var layers []proxy.Layer
	if r.cfg.BarrierLayer {
		s.bar = &barrierLayer{sess: s, buffer: r.cfg.BufferForReorder}
		layers = append(layers, s.bar)
	}
	layers = append(layers, al)
	// The strategy and the shard binding must exist before NewSession
	// starts message flow: backlogged TCP traffic is flushed through the
	// layer chain inside NewSession and reaches s.strat (and the shard's
	// outbox) immediately.
	s.strat = r.strategyFor(name).ForSwitch(strategyCtx{s: s})
	s.burstEnder, _ = s.strat.(BurstEnder)
	s.resolved, _ = s.strat.(ResolutionObserver)
	if r.scheduled && s.burstEnder != nil {
		s.fireBurstEnd = s.scheduledBurstEnd
	}
	sh.bind(s)
	ps := proxy.NewSession(name, dpid, r.cfg.Clock, ctrlConn, swConn, layers...)
	s.proxy = ps
	return ps, nil
}

// session is RUM's per-switch state bundle.
type session struct {
	rum    *RUM
	name   string
	shard  *shard
	proxy  *proxy.Session
	swConn transport.Conn // direct switch channel; valid before proxy is
	ctConn transport.Conn // direct controller channel; valid before proxy is
	ack    *ackLayer
	bar    *barrierLayer
	strat  SwitchStrategy
	// agg is the session's logical/physical aggregation pair
	// (Config.Aggregate); nil when aggregation is off.
	agg *aggregate.Table
	// techName is the serving strategy's registered name, cached for the
	// intent journal's records.
	techName string
	// burstEnder and resolved are the strategy's optional hooks, resolved
	// once at attach (nil when not implemented).
	burstEnder BurstEnder
	resolved   ResolutionObserver
	// burstArmed / fireBurstEnd drive the strategy's OnBurstEnd under a
	// simulated clock, where a burst is one instant (see noteFlowMod).
	burstArmed   atomic.Bool
	fireBurstEnd func()
	// burstAt caches the wall-clock reading the current controller burst's
	// updates are stamped with; zero between bursts.
	burstAt atomic.Int64
	// liveStripe is the LiveUpdates counter stripe this session's updates
	// are counted on.
	liveStripe uint8

	// recycleAcks: the controller conn encodes frames, so emitted RUM
	// acks return to the codec pool after Send. reuseBatch: the switch
	// conn encodes frames during SendBatch and retains neither the batch
	// slice nor the message structs, so the shard may recycle drained
	// outbox backings (pipes retain the slice until delivery). recycleFM:
	// both conns encode frames, so tracked FlowMods (decoded by RUM,
	// serialized by RUM) recycle once flushed to the wire and resolved.
	recycleAcks bool
	reuseBatch  bool
	recycleFM   bool
}

// sendToSwitch queues a message for the switch's control channel through
// the session's shard and drains the outbox inline (or leaves the message
// to the drain in progress): sends batch per flush and RUM barriers
// coalesce. It is safe during attach, before message flow starts (the
// shard is bound before NewSession flushes backlogged traffic through the
// layers).
func (s *session) sendToSwitch(m of.Message) { s.shard.enqueue(s, m) }

// endBurst closes a dispatch burst — a read burst of the controller conn,
// an injected message, a barrier-layer release: the aggregation stage is
// flushed, the strategy stamps whatever it coalesces per burst (the one
// covering barrier), and the goroutine that queued the burst drains the
// outbox with one batch send. Under a simulated clock all three are
// clock events scheduled as the burst's messages arrive (an instant is
// the burst), so there is nothing left to do here.
func (s *session) endBurst() {
	if s.rum.scheduled {
		return
	}
	s.burstAt.Store(0)
	if s.agg != nil {
		s.ack.flushAggStage()
	}
	if s.burstEnder != nil {
		s.burstEnder.OnBurstEnd()
	}
	s.shard.drain()
}

// burstNow is the issue timestamp for an update of the current controller
// burst: the clock is read once per burst, when its first update is
// tracked. The simulated clock is free to read and every instant is its
// own burst there.
func (s *session) burstNow() time.Duration {
	if s.rum.scheduled {
		return s.rum.cfg.Clock.Now()
	}
	if t := s.burstAt.Load(); t != 0 {
		return time.Duration(t)
	}
	t := s.rum.cfg.Clock.Now()
	s.burstAt.Store(int64(t))
	return t
}

// noteFlowMod follows every OnFlowMod. Under a wall clock the burst's end
// is signalled by whoever delivered the burst (endBurst); under the
// simulated clock the first update of an instant schedules the strategy's
// OnBurstEnd behind everything else queued for that instant.
func (s *session) noteFlowMod() {
	if !s.rum.scheduled || s.burstEnder == nil || s.burstArmed.Swap(true) {
		return
	}
	s.rum.cfg.Clock.After(0, s.fireBurstEnd)
}

func (s *session) scheduledBurstEnd() {
	s.burstArmed.Store(false)
	s.burstEnder.OnBurstEnd()
}

// sendBatchToSwitchNow writes a whole flushed batch to the switch
// connection, in one transport operation when the conn supports it, and
// returns how many messages the transport accepted. Conns implementing
// PartialBatchSender may refuse a suffix under backpressure (trace-paced
// fault links, bounded TCP writers); the shard requeues the remainder.
// Plain conns always accept everything.
//
// This is the outbox drain's pool release point: on conns that serialize
// frames during the send (TCP), RUM regains exclusive ownership of its
// own barrier requests the moment the call returns — nothing else ever
// references them (strategies track barriers by xid only) — so they go
// back to the codec pool. On pipes the structs travel by pointer and the
// receiving switch releases them instead. Only the accepted prefix is
// released: a refused message is still owned by the outbox.
func (s *session) sendBatchToSwitchNow(ms []of.Message) int {
	// Write-ahead intent replication: the successor's replica learns this
	// batch's intents no later than the wire does, so a crash between the
	// send and the confirmations always leaves the rescue path a record.
	if s.ack.journalOn {
		s.ack.journalDeliver()
	}
	sent := len(ms)
	if ps, ok := s.swConn.(transport.PartialBatchSender); ok {
		n, _ := ps.SendBatchPartial(ms)
		sent = n
	} else if bs, ok := s.swConn.(transport.BatchSender); ok {
		_ = bs.SendBatch(ms)
	} else {
		for _, m := range ms {
			_ = s.swConn.Send(m)
		}
	}
	if !s.reuseBatch {
		return sent
	}
	flowMods := 0
	for _, m := range ms[:sent] {
		switch mm := m.(type) {
		case *of.BarrierRequest:
			if IsRUMXID(mm.GetXID()) {
				of.Release(mm)
			}
		case *of.FlowMod:
			if !IsRUMXID(mm.GetXID()) {
				flowMods++
			}
		}
	}
	// Tracked FlowMods are encoded in seq order (the outbox is FIFO);
	// advance the ack layer's wire watermark so resolved updates can
	// recycle their decoded structs.
	if s.recycleFM && flowMods > 0 {
		s.ack.noteFlushed(flowMods)
	}
	return sent
}

// sendToController injects a message directly on the controller channel,
// above the whole layer chain; like sendToSwitch it is safe before the
// proxy session exists.
func (s *session) sendToController(m of.Message) { _ = s.ctConn.Send(m) }

func (s *session) clock() sim.Clock { return s.rum.cfg.Clock }

// injector picks the neighbor switch A used to inject probes toward s
// (deterministically: the smallest-named attached neighbor), returning A's
// name and A's port toward s.
func (s *session) injector() (string, uint16, bool) {
	r := s.rum
	neighbors := r.topo.Neighbors(s.name)
	type cand struct {
		name string
		port uint16
	}
	var cands []cand
	for _, nb := range neighbors {
		if port, ok := r.topo.PortToward(nb, s.name); ok {
			cands = append(cands, cand{nb, port})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
	for _, c := range cands {
		if _, ok := r.sessionByName(c.name); ok {
			return c.name, c.port, true
		}
	}
	return "", 0, false
}

// receiver picks the neighbor switch C whose probe-catch rule collects
// sequential probes forwarded by s (the largest-named attached neighbor,
// so that injector != receiver whenever s has two neighbors), returning
// C's name and s's port toward C.
func (s *session) receiver() (string, uint16, bool) {
	r := s.rum
	neighbors := r.topo.Neighbors(s.name)
	type cand struct {
		name string
		port uint16
	}
	var cands []cand
	for port, nb := range neighbors {
		cands = append(cands, cand{nb, port})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name > cands[j].name })
	for _, c := range cands {
		if _, ok := r.sessionByName(c.name); ok {
			return c.name, c.port, true
		}
	}
	return "", 0, false
}

// DetachSwitch removes an attached switch: it closes both sides of the
// proxied control channel, drops the shard's unflushed outbox, tears the
// switch's strategy state out of its deployment (releasing e.g.
// sequential probe-rule versions), resolves every still-pending update
// as failed — including updates whose FlowMods were still queued in an
// in-flight injection batch — and then fails every remaining registered
// ack future for the switch (a watched FlowMod may have died on the
// closing control channel before RUM ever tracked it). Futures resolve
// and dependent barriers unwedge instead of waiting on a send that will
// never happen. The name is then free for a fresh AttachSwitch (switch
// reconnection). It reports whether the switch was attached.
//
// Failed futures carry ErrChannelLost; when the detach is driven by a
// known switch crash, use DetachSwitchCause with ErrSwitchRestarted so
// controllers can tell "re-issue the in-flight updates" apart from
// "replay the whole FIB".
func (r *RUM) DetachSwitch(name string) bool {
	return r.DetachSwitchCause(name, ErrChannelLost)
}

// DetachSwitchCause is DetachSwitch with an explicit typed cause
// delivered on every failed future and AckEvent (AckResult.Err). The
// recovery paths use ErrChannelLost for a lost control channel and
// ErrSwitchRestarted for a crash that wiped the switch's FIB; a nil
// cause is recorded as ErrChannelLost.
func (r *RUM) DetachSwitchCause(name string, cause error) bool {
	if cause == nil {
		cause = ErrChannelLost
	}
	r.mu.Lock()
	v, ok := r.shards.Load(name)
	var s *session
	var sh *shard
	if ok {
		sh = v.(*shard)
		s = sh.session()
		if s != nil {
			sh.close()
		}
	}
	r.mu.Unlock()
	if s == nil {
		return false
	}
	// Attach holds mu until the session is fully built, so proxy and
	// strat are always valid here.
	_ = s.proxy.Close()
	// Readers may still be unwinding a burst: from here on the ack layer
	// fails what they deliver instead of tracking it on a dead session.
	s.ack.close(cause)
	// The shard's outbox is gone: wire references for never-encoded
	// FlowMods must drop here or the pooled updates leak.
	s.ack.releaseWire()
	// Ship any intents still buffered for replication before the pending
	// updates fail below: their detach-driven failures are not journaled
	// (journalResolve), so the replica keeps exactly the set a successor
	// can still rescue.
	if s.ack.journalOn {
		s.ack.journalDeliver()
	}
	if d, ok := s.strat.(SwitchDetacher); ok {
		d.Detach()
	}
	// Logical FlowMods staged for an aggregation flush that will never
	// run must fail now, with the same cause as the in-flight physical
	// ops below (whose fan-in fails the logical futures they cover).
	if s.agg != nil {
		s.ack.dropAggStage()
	}
	for _, u := range s.ack.takePendingRetained() {
		s.ack.confirmCause(u, OutcomeFailed, cause)
		u.Release()
	}
	sh.failAllWatchers(r.cfg.Clock.Now(), cause)
	return true
}

// SwitchConn returns the switch-side conn of an attached session (nil
// while detached). Fault harnesses use it to reach the fault wrapper
// interposed at AttachSwitch (e.g. to cut the channel mid-run); it is
// not a send path — all traffic must flow through the session's layers.
func (r *RUM) SwitchConn(name string) transport.Conn {
	s, ok := r.sessionByName(name)
	if !ok {
		return nil
	}
	return s.swConn
}

// sessionByName returns the session proxying the named switch. It is the
// hot-path lookup (probe injection, attachment checks) and touches only
// the lock-free shard map plus the target shard's own lock.
func (r *RUM) sessionByName(name string) (*session, bool) {
	v, ok := r.shards.Load(name)
	if !ok {
		return nil, false
	}
	s := v.(*shard).session()
	return s, s != nil
}

// attachedSessions snapshots the attached sessions sorted by name (cold
// paths: bootstrap).
func (r *RUM) attachedSessions() []*session {
	var out []*session
	r.shards.Range(func(_, v any) bool {
		if s := v.(*shard).session(); s != nil {
			out = append(out, s)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// routeProbe offers an unclaimed probe PacketIn to every strategy
// deployment that collects probes across switches.
func (r *RUM) routeProbe(recv string, pin *of.PacketIn, f packet.Fields) bool {
	for _, d := range r.deployments {
		if pr, ok := d.(ProbeRouter); ok && pr.RouteProbe(recv, pin, f) {
			return true
		}
	}
	return false
}

// Bootstrap installs RUM's probe infrastructure rules on every attached
// switch whose strategy preinstalls rules (the probe-catch rule and, for
// the sequential technique, the initial versioned probe rule). It must be
// called after all switches are attached; rules become effective once
// each switch's data plane syncs.
func (r *RUM) Bootstrap() error {
	for _, s := range r.attachedSessions() {
		if b, ok := s.strat.(SwitchBootstrapper); ok {
			if err := b.Bootstrap(); err != nil {
				return fmt.Errorf("core: bootstrap %s: %w", s.name, err)
			}
		}
	}
	return nil
}

// BootstrapSwitch installs probe infrastructure on a single attached
// switch — the reconnection path: re-bootstrapping everyone would reset
// live probe rules (e.g. the sequential technique's versioned rule) on
// switches with confirmations in flight. Other switches' strategies get
// the chance to reinstall rules they own on the (possibly
// empty-tabled) returning switch via NeighborBootstrapper.
func (r *RUM) BootstrapSwitch(name string) error {
	s, ok := r.sessionByName(name)
	if !ok {
		return fmt.Errorf("core: bootstrap %s: not attached", name)
	}
	if b, ok := s.strat.(SwitchBootstrapper); ok {
		if err := b.Bootstrap(); err != nil {
			return fmt.Errorf("core: bootstrap %s: %w", name, err)
		}
	}
	for _, o := range r.attachedSessions() {
		if o.name == name {
			continue
		}
		if nb, ok := o.strat.(NeighborBootstrapper); ok {
			nb.BootstrapNeighbor(name)
		}
	}
	return nil
}

// AggregationStats reports the named switch's aggregation counters:
// logical vs physical rule counts (the compression ratio), per-batch
// verifier witnesses, bypassed keys, and the unrepaired-counterexample
// count that must stay zero. ok is false when the switch is not
// attached or Config.Aggregate is off.
func (r *RUM) AggregationStats(name string) (s aggregate.Stats, ok bool) {
	sess, found := r.sessionByName(name)
	if !found || sess.agg == nil {
		return aggregate.Stats{}, false
	}
	return sess.agg.Stats(), true
}

// AggregationTable exposes the named switch's aggregate table so
// verification harnesses can run from-scratch equivalence proofs
// (aggregate.Table.VerifyFull) or snapshot the rule sets; nil when the
// switch is not attached or aggregation is off.
func (r *RUM) AggregationTable(name string) *aggregate.Table {
	sess, found := r.sessionByName(name)
	if !found {
		return nil
	}
	return sess.agg
}

// Stats reports RUM-level counters: fine-grained acks emitted, probe
// packets injected, and control-plane fallbacks taken. The event stream
// (Subscribe) carries the same information in structured form.
func (r *RUM) Stats() (acks, probes, fallbacks uint64) {
	return r.acksSent.Load(), r.probesSent.Load(), r.fallbacks.Load()
}

// OverloadSheds reports how many tracked updates have been shed with
// ErrOverloaded since start (Config.OutboxLimit admission refusals).
func (r *RUM) OverloadSheds() uint64 { return r.sheds.Load() }

// OutboxHighWater reports the deepest the named switch's outbox has ever
// been (queued messages plus the batch in flight) — the observability
// hook for the bounded-memory guarantee of Config.OutboxLimit. Zero for
// unknown switches.
func (r *RUM) OutboxHighWater(name string) int {
	v, ok := r.shards.Load(name)
	if !ok {
		return 0
	}
	sh := v.(*shard)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.obHighWater
}

// Degraded reports whether the named switch is currently marked slow by
// the Degrade policy's drain-latency EWMA.
func (r *RUM) Degraded(name string) bool {
	v, ok := r.shards.Load(name)
	if !ok {
		return false
	}
	sh := v.(*shard)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.degraded
}
