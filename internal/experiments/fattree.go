package experiments

import (
	"fmt"
	"sort"
	"time"

	"rum/internal/controller"
	"rum/internal/core"
	"rum/internal/netsim"
	"rum/internal/sim"
	"rum/internal/switchsim"
	"rum/internal/transport"
)

// FatTreeChurnOpts parameterizes the datacenter-scale churn workload: a
// k-ary fat-tree fabric (80 switches at k=8) under a storm of concurrent
// rule updates with per-switch acknowledgment strategies mixed across the
// layers. It is the scale counterpart of the paper's triangle
// experiments: the observable is not one figure's broken time but
// whether the RUM core keeps up — updates/sec through the proxy and the
// tail of the ack latency distribution.
type FatTreeChurnOpts struct {
	// K is the fat-tree arity (even, default 8 → 80 switches).
	K int
	// UpdatesPerSwitch is the number of rule updates issued to every
	// switch (default 25 → 2000 updates at k=8).
	UpdatesPerSwitch int
	// Burst is how many updates a switch receives back-to-back per
	// stagger tick — controllers push rules in batches, and bursts are
	// what the sharded core's batching/coalescing is built for (default
	// 5).
	Burst int
	// Stagger is the gap between a switch's consecutive update bursts;
	// all switches churn simultaneously (default 500µs).
	Stagger time.Duration
	// Mixed assigns strategies per layer — edge: sequential, aggregation:
	// general, core: the default technique — exercising heterogeneous
	// per-switch deployments. When false every switch runs Technique.
	Mixed bool
	// Technique is the non-mixed (and core-layer) strategy; default
	// timeout.
	Technique core.Technique
	// TimeoutRate is the timeout technique's work-proportional bound in
	// rules/sec (core.Config.TimeoutRate). The default 1000 is the rate
	// the paper's fixed 300 ms / 300-rule worst case already assumes; it
	// is what keeps the churn's ack-latency tail proportional to the
	// actual burst size instead of flat at the full-table worst case.
	// Negative restores the fixed-delay behavior (the tail-regression
	// baseline).
	TimeoutRate float64
	// CtrlLatency and LinkLatency mirror EnvConfig (defaults 100µs/20µs).
	CtrlLatency time.Duration
	LinkLatency time.Duration
	// Deadline bounds the simulated time the churn may take (default 60s).
	Deadline time.Duration
}

// Defaults fills zero fields.
func (o FatTreeChurnOpts) Defaults() FatTreeChurnOpts {
	if o.K == 0 {
		o.K = 8
	}
	if o.UpdatesPerSwitch == 0 {
		o.UpdatesPerSwitch = 25
	}
	if o.Burst == 0 {
		o.Burst = 5
	}
	if o.Stagger == 0 {
		o.Stagger = 500 * time.Microsecond
	}
	if o.Technique == "" {
		o.Technique = core.TechTimeout
	}
	if o.TimeoutRate == 0 {
		o.TimeoutRate = 1000
	}
	if o.CtrlLatency == 0 {
		o.CtrlLatency = 100 * time.Microsecond
	}
	if o.LinkLatency == 0 {
		o.LinkLatency = 20 * time.Microsecond
	}
	if o.Deadline == 0 {
		o.Deadline = 60 * time.Second
	}
	return o
}

// FatTreeChurnResult reports the workload's scale metrics.
type FatTreeChurnResult struct {
	K        int
	Switches int
	Updates  int

	Completed int // updates acknowledged (any positive outcome)
	Failed    int // updates resolved as failed
	Unacked   int // updates still pending at the deadline

	// WallElapsed is the real time the churn phase took to process —
	// the cost of running the RUM hot path — and UpdatesPerSec is
	// Completed divided by it.
	WallElapsed   time.Duration
	SimElapsed    time.Duration
	UpdatesPerSec float64

	// P50/P99 are percentiles of the observed ack latencies (simulated
	// time, issue → confirmation).
	P50, P99 time.Duration

	// PerTechnique breaks the latency distribution down by strategy
	// cohort — the instrumentation that located the original 300 ms p99
	// (every update on a timeout-technique core switch paid the fixed
	// full-table hold, while the probing cohorts confirmed in ~2 ms).
	PerTechnique map[core.Technique]CohortStats

	Acks, Probes, Fallbacks uint64

	// SwitchBarriers is the total number of BarrierRequests the fabric's
	// control planes served — the sharded core's coalescing shows up here
	// as a direct reduction in switch work for the same update count.
	SwitchBarriers uint64
}

// CohortStats is one strategy cohort's slice of the ack-latency
// distribution.
type CohortStats struct {
	Updates  int
	P50, P99 time.Duration
}

// FatTreeChurn builds a k-ary fat-tree of emulated switches proxied by
// one RUM instance and drives the churn storm through it.
func FatTreeChurn(opts FatTreeChurnOpts) (*FatTreeChurnResult, error) {
	opts = opts.Defaults()
	ft, err := netsim.NewFatTree(opts.K)
	if err != nil {
		return nil, err
	}

	s := sim.New()
	n := netsim.New(s)
	switches := make(map[string]*switchsim.Switch)
	for i, name := range ft.Switches() {
		switches[name] = switchsim.New(name, uint64(i+1), switchsim.ProfileSoftware(), s, n)
	}
	links := make([]core.TopoLink, len(ft.Links))
	for i, l := range ft.Links {
		n.Connect(switches[l.A], l.APort, switches[l.B], l.BPort, opts.LinkLatency)
		links[i] = core.TopoLink{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort}
	}

	cfg := core.Config{
		Clock:     s,
		Technique: opts.Technique,
		RUMAware:  true,
	}
	if opts.TimeoutRate > 0 {
		cfg.TimeoutRate = opts.TimeoutRate
	}
	if opts.Mixed {
		cfg.PerSwitch = make(map[string]core.Technique)
		for _, sw := range ft.Edge {
			cfg.PerSwitch[sw] = core.TechSequential
		}
		for _, sw := range ft.Agg {
			cfg.PerSwitch[sw] = core.TechGeneral
		}
	}
	r, err := core.New(cfg, core.NewTopology(links))
	if err != nil {
		return nil, err
	}
	ctrlConns := make(map[string]transport.Conn)
	for name, sw := range switches {
		ctrlTop, ctrlBottom := transport.Pipe(s, opts.CtrlLatency)
		rumSide, swSide := transport.Pipe(s, opts.CtrlLatency)
		sw.AttachConn(swSide)
		if _, err := r.AttachSwitch(name, sw.DPID(), ctrlBottom, rumSide); err != nil {
			return nil, fmt.Errorf("experiments: attaching %s: %w", name, err)
		}
		ctrlConns[name] = ctrlTop
	}
	client := controller.NewClient(s, controller.AckRUM, ctrlConns)
	if err := r.Bootstrap(); err != nil {
		return nil, err
	}
	s.RunFor(700 * time.Millisecond)

	// The churn storm: every switch receives UpdatesPerSwitch forwarding
	// rules (globally unique flows, output rotating over the switch's
	// inter-switch ports so the probing strategies can observe them),
	// all switches in parallel.
	names := ft.Switches()
	techniqueOf := func(sw string) core.Technique {
		if t, ok := cfg.PerSwitch[sw]; ok {
			return t
		}
		return opts.Technique
	}
	total := len(names) * opts.UpdatesPerSwitch
	handles := make([]*core.UpdateHandle, 0, total)
	flowID := 0
	for _, name := range names {
		ports := ft.InterPorts(name)
		for u := 0; u < opts.UpdatesPerSwitch; u++ {
			sw, port := name, ports[u%len(ports)]
			f := controller.FlowSpec{ID: flowID}
			f.Src, f.Dst = controller.FlowAddr(flowID)
			flowID++
			fm := controller.AddRule(f, 100, port)
			fm.SetXID(client.NewXID())
			handles = append(handles, r.Watch(sw, fm.GetXID()))
			delay := time.Duration(u/opts.Burst) * opts.Stagger
			s.After(delay, func() { _ = client.Send(sw, fm) })
		}
	}

	churnStart := s.Now()
	wallStart := time.Now()
	deadline := churnStart + opts.Deadline
	resolved := func() int {
		done := 0
		for _, h := range handles {
			if _, ok := h.Result(); ok {
				done++
			}
		}
		return done
	}
	for resolved() < total && s.Now() < deadline {
		s.RunFor(10 * time.Millisecond)
	}
	wall := time.Since(wallStart)

	res := &FatTreeChurnResult{
		K:           opts.K,
		Switches:    len(names),
		Updates:     total,
		WallElapsed: wall,
		SimElapsed:  s.Now() - churnStart,
	}
	percentiles := func(lats []time.Duration) (p50, p99 time.Duration) {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		i99 := len(lats) * 99 / 100
		if i99 >= len(lats) {
			i99 = len(lats) - 1
		}
		return lats[len(lats)*50/100], lats[i99]
	}
	var lats []time.Duration
	cohorts := make(map[core.Technique][]time.Duration)
	for _, h := range handles {
		ar, ok := h.Result()
		switch {
		case !ok:
			res.Unacked++
		case ar.Outcome == core.OutcomeFailed:
			res.Failed++
		default:
			res.Completed++
			lats = append(lats, ar.Latency)
			tech := techniqueOf(ar.Switch)
			cohorts[tech] = append(cohorts[tech], ar.Latency)
		}
	}
	if wall > 0 {
		res.UpdatesPerSec = float64(res.Completed) / wall.Seconds()
	}
	if len(lats) > 0 {
		res.P50, res.P99 = percentiles(lats)
		res.PerTechnique = make(map[core.Technique]CohortStats, len(cohorts))
		for tech, cl := range cohorts {
			st := CohortStats{Updates: len(cl)}
			st.P50, st.P99 = percentiles(cl)
			res.PerTechnique[tech] = st
		}
	}
	res.Acks, res.Probes, res.Fallbacks = r.Stats()
	for _, sw := range switches {
		res.SwitchBarriers += sw.BarriersServed()
	}
	return res, nil
}
