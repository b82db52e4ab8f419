package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// repSpec is one repetition of one workload.
type repSpec struct {
	workload string
	seed     int64
	warm     time.Duration // runs before the window opens: pools, write buffers, rings
	measure  time.Duration // the measured window
	trace    bool
}

// repResult is what one repetition measured.
type repResult struct {
	e2e       map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer counters (and span summaries when traced)
	setups    []float64          // set-up times seen, seconds
	attempted int64              // updates sent, warm-up and drain included
	failed    int64              // of those, not acknowledged exactly once and correctly
	breaches  []string           // violated conditions of the correctness gate
	samples   int                // ack-latency samples behind the percentiles
	spans     []span             // traced repetitions only
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	// simulated workloads run on the simulated clock: their counters and
	// simulated latencies repeat exactly.
	simulated bool
	run       func(repSpec) (*repResult, error)
	// setup builds and tears down the workload's bed once and returns the
	// set-up time in seconds (nil: run reports enough samples itself).
	setup func(seed int64) (float64, error)
}

// setupsPerRep is how many extra set-ups precede each repetition. The
// first few in a process are up to four times slower than the rest
// (threads, pollers and pools come into being), so a repetition reports
// the median of these and its own.
const setupsPerRep = 16

// rep runs one repetition and fills in its setup_s.
func (d *workloadDef) rep(spec repSpec) (*repResult, error) {
	var setups []float64
	if d.setup != nil {
		for i := 0; i < setupsPerRep; i++ {
			s, err := d.setup(spec.seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	r, err := d.run(spec)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = median(append(setups, r.setups...))
	return r, nil
}

// floodShape is a closed-loop FlowMod flood over loopback TCP: every
// driver keeps window FlowMods in flight on each of its switches.
type floodShape struct {
	layer        string
	technique    string
	rumAware     bool
	barrierLayer bool
	switches     int
	drivers      int
	window       int
	adds, dels   int  // per SendBatch call
	ctrlBarrier  bool // a controller BarrierRequest follows every batch
}

var (
	ackFlood = floodShape{layer: layerServer, technique: "barriers", rumAware: true,
		switches: 2, drivers: 2, window: 256, adds: 16}
	fabricFanout = floodShape{layer: layerServer, technique: "barriers", rumAware: true, barrierLayer: true,
		switches: 32, drivers: 2, window: 64, adds: 8, dels: 8, ctrlBarrier: true}
	waveSync = floodShape{layer: layerServer, technique: "barriers",
		switches: 16, drivers: 1, window: 4, adds: 4}
)

// ackStride samples one ack latency in 17 on the floods: coprime with
// every batch size, so all batch positions are sampled, and few enough
// (100k samples a second on ack_flood) to keep the sample buffers small.
const ackStride = 17

// waveStride samples one ack latency in three on wave_sync (coprime with
// its batches of four).
const waveStride = 3

func (sh floodShape) bed(spec repSpec, stride uint32) bedSpec {
	return bedSpec{workload: spec.workload, seed: spec.seed, switches: sh.switches,
		layer: sh.layer, technique: sh.technique, rumAware: sh.rumAware, barrierLayer: sh.barrierLayer,
		ring: sh.window + sh.adds + sh.dels, stride: stride, trace: spec.trace}
}

var workloads = []workloadDef{
	{name: "ack_flood",
		why:   "2 switches, 256 adds in flight each: proxy-bound ack capacity at minimum fan-out (of, transport, core ack path)",
		run:   func(s repSpec) (*repResult, error) { return runFlood(s, ackFlood) },
		setup: func(seed int64) (float64, error) { return floodSetup(seed, "ack_flood", ackFlood) }},
	{name: "fabric_fanout",
		why:   "32 switches, adds and strict deletes, a controller barrier per batch: per-switch handoff cost, removals and absorbed barriers",
		run:   func(s repSpec) (*repResult, error) { return runFlood(s, fabricFanout) },
		setup: func(seed int64) (float64, error) { return floodSetup(seed, "fabric_fanout", fabricFanout) }},
	{name: "wave_sync",
		why:   "16 switches, a wave of 64 watched updates starts when the last one's futures resolved: latency-bound, shallow queues",
		run:   runWaveSync,
		setup: func(seed int64) (float64, error) { return floodSetup(seed, "wave_sync", waveSync) }},
	{name: "fattree_sim",
		why:       "k=8 fat-tree churn on the simulated clock, mixed strategies: the deterministic path the paper figures use (hsa, switchsim, netsim)",
		simulated: true, run: runFatTreeSim},
	{name: "hw_triangle",
		why:       "paper's triangle, HP 5406zl model, general probing, 300 adds then 300 deletes: the switch sets the pace, probing does the work",
		simulated: true, run: runHWTriangle, setup: triangleSetup},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// floodSetup builds and closes a bed, returning the set-up time.
func floodSetup(seed int64, workload string, sh floodShape) (float64, error) {
	t0 := nowNs()
	bed, err := newTCPBed(sh.bed(repSpec{workload: workload, seed: seed}, ackStride))
	if err != nil {
		return 0, err
	}
	d := float64(nowNs()-t0) / 1e9
	bed.close()
	return d, nil
}

// window is the bookkeeping common to every repetition: what is read
// when the measured window opens and closes.
type window struct {
	p0, p1 procSnap
	c0, c1 bedCounters
}

func (w *window) seconds() float64 { return float64(w.p1.wallNs-w.p0.wallNs) / 1e9 }

// e2e fills the end-to-end metrics every workload reports.
func (w *window) e2e(res *repResult, confirmed int64, ackMs, waveMs []float64) {
	n := float64(max(confirmed, 1))
	res.samples = len(ackMs)
	res.e2e["confirmed_per_s"] = float64(confirmed) / w.seconds()
	res.e2e["ack_p50_ms"] = tailPercentile(ackMs, 0.5)
	res.e2e["ack_p99_ms"] = tailPercentile(ackMs, 0.99, 0.95, 0.9)
	res.e2e["wave_p50_ms"] = tailPercentile(waveMs, 0.5)
	res.e2e["cpu_us_per_update"] = float64(w.p1.cpuNs-w.p0.cpuNs) / 1e3 / n
	res.e2e["allocs_per_update"] = float64(w.p1.mallocs-w.p0.mallocs) / n
	res.layer["wave.p99_ms"] = tailPercentile(waveMs, 0.99, 0.95, 0.9)
	res.layer["ack.p999_ms"] = tailPercentile(ackMs, 0.999, 0.99, 0.95, 0.9)
}

// counters fills the per-layer counters read through public accessors
// over the window.
func (w *window) counters(res *repResult, confirmed int64) {
	layerCounters(res.layer, w.c0, w.c1, confirmed)
	l := res.layer
	l["runtime.goroutines"] = float64(w.p1.goroutines)
	l["runtime.heap_inuse_mb"] = float64(w.p1.heapInuse) / (1 << 20)
	l["runtime.gc_cycles"] = float64(w.p1.gcCycles - w.p0.gcCycles)
	l["runtime.gc_pause_ms"] = float64(w.p1.gcPauseNs-w.p0.gcPauseNs) / 1e6
}

// layerCounters turns two counter readings and the updates confirmed
// between them into per-update ratios.
func layerCounters(l map[string]float64, c0, c1 bedCounters, confirmed int64) {
	n := float64(max(confirmed, 1))
	l["core.probes_per_update"] = float64(c1.probes-c0.probes) / n
	l["core.fallbacks"] = float64(c1.fallbacks - c0.fallbacks)
	l["core.sheds"] = float64(c1.sheds - c0.sheds)
	l["core.outbox_high_water"] = float64(c1.outboxHigh)
	l["switch.barriers_per_update"] = float64(c1.swBarriers-c0.swBarriers) / n
	l["switch.pktouts_per_update"] = float64(c1.pktOuts-c0.pktOuts) / n
	l["switch.pktins_per_update"] = float64(c1.pktIns-c0.pktIns) / n
	l["switch.syncs"] = float64(c1.swSyncs - c0.swSyncs)
	l["transport.sw_bytes_per_update"] = float64(c1.swBytes-c0.swBytes) / n
	l["transport.sw_reads_per_update"] = float64(c1.swReads-c0.swReads) / n
	l["transport.ctrl_bytes_per_update"] = float64(c1.ctrlBytes-c0.ctrlBytes) / n
	l["transport.ctrl_reads_per_update"] = float64(c1.ctrlReads-c0.ctrlReads) / n
	l["sim.events_per_update"] = float64(c1.simSteps-c0.simSteps) / n
}

func newRepResult() *repResult {
	return &repResult{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// floodRun is a flood in progress on a bed.
type floodRun struct {
	bed   *tcpBed
	shape floodShape
	stop  chan struct{}
	wg    sync.WaitGroup
	idle  atomic.Int64 // ns drivers spent parked on full windows
	errMu sync.Mutex
	err   error
}

// startFlood assigns the bed's switches to drivers in a seeded visiting
// order and starts them.
func startFlood(bed *tcpBed, sh floodShape, seed int64) *floodRun {
	f := &floodRun{bed: bed, shape: sh, stop: make(chan struct{})}
	r := rng{s: streamSeed(seed, bed.spec.workload, -1)}
	order := r.perm(len(bed.eps))
	for d := 0; d < sh.drivers; d++ {
		var mine []*endpoint
		wake := make(chan struct{}, 1)
		for k := d; k < len(order); k += sh.drivers {
			e := bed.eps[order[k]]
			e.tr.wake, e.tr.wakeAt = wake, int64(sh.window-sh.adds-sh.dels)
			e.tr.batchWave = !sh.ctrlBarrier
			mine = append(mine, e)
		}
		f.wg.Add(1)
		go f.drive(mine, wake)
	}
	return f
}

// drive is one closed-loop driver multiplexing its switches: it sends a
// batch wherever the window has room and parks when it has none.
func (f *floodRun) drive(eps []*endpoint, wake chan struct{}) {
	defer f.wg.Done()
	sh := f.shape
	batch := int64(sh.adds + sh.dels)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		sent := false
		for _, e := range eps {
			if e.tr.inFlight()+batch > int64(sh.window) {
				continue
			}
			if err := e.sendBatch(sh.adds, sh.dels, sh.ctrlBarrier); err != nil {
				f.errMu.Lock()
				f.err = fmt.Errorf("%s: send: %w", e.name, err)
				f.errMu.Unlock()
				return
			}
			sent = true
		}
		if !sent {
			t := nowNs()
			select {
			case <-wake:
			case <-f.stop:
				return
			}
			f.idle.Add(nowNs() - t)
		}
	}
}

// finish stops the drivers and waits for the outstanding acks.
func (f *floodRun) finish() error {
	close(f.stop)
	f.wg.Wait()
	drainTrackers(f.bed)
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// drainTrackers waits until nothing is in flight on the bed, or the
// drain deadline.
func drainTrackers(bed *tcpBed) {
	deadline := time.Now().Add(drainDeadline)
	for time.Now().Before(deadline) {
		c := bedCounts(bed)
		if c.sent == c.acked && c.barriersOpen == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func bedCounts(bed *tcpBed) counts {
	var c counts
	for _, e := range bed.eps {
		c.add(e.tr.counts())
	}
	return c
}

// measureBed sleeps through warm-up, opens the window, sleeps through it
// and closes it, returning the window and the acks that fell inside it.
func measureBed(bed *tcpBed, spec repSpec, idle *atomic.Int64) (w window, confirmed int64, idleFrac float64) {
	time.Sleep(spec.warm)
	for _, e := range bed.eps {
		e.tr.startRecording()
	}
	a0, i0 := bedCounts(bed).acked, idle.Load()
	w.c0, w.p0 = bed.counters(), snapProc()
	time.Sleep(spec.measure)
	w.p1, w.c1 = snapProc(), bed.counters()
	a1, i1 := bedCounts(bed).acked, idle.Load()
	for _, e := range bed.eps {
		e.tr.stopRecording()
	}
	return w, a1 - a0, float64(i1-i0) / float64(w.p1.wallNs-w.p0.wallNs)
}

// bedSamples merges the latency samples of every switch, sorted, in ms.
func bedSamples(bed *tcpBed) (ackMs, waveMs []float64, dropped int64) {
	var ack, wave []uint32
	for _, e := range bed.eps {
		ack = append(ack, e.tr.ackNs...)
		wave = append(wave, e.tr.waveNs...)
		dropped += e.tr.dropped
	}
	return sortedMs(ack), sortedMs(wave), dropped
}

// closeBed tears the bed down and folds its verdict into the result.
func closeBed(bed *tcpBed, res *repResult, w *window) {
	c := bedCounts(bed)
	res.attempted, res.failed = c.sent, c.failed()
	res.breaches = append(res.breaches, c.breaches(bed.spec.workload)...)
	end := bed.counters()
	if end.rejected != 0 {
		res.breaches = append(res.breaches, fmt.Sprintf("%s: %d FlowMods rejected with an OpenFlow error", bed.spec.workload, end.rejected))
	}
	bed.mu.Lock()
	for _, err := range bed.errs {
		res.breaches = append(res.breaches, fmt.Sprintf("%s: proxy reported: %v", bed.spec.workload, err))
	}
	bed.mu.Unlock()
	leak := bed.close()
	res.layer["core.live_updates_leak"] = float64(leak)
	if leak != 0 {
		res.breaches = append(res.breaches, fmt.Sprintf("%s: %d pooled updates still referenced after detach", bed.spec.workload, leak))
	}
	res.layer["false_acks"] = float64(c.falseAcks)
	res.layer["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	if bed.log != nil {
		res.spans = bed.log.spans(bed.spec.workload, w.p0.wallNs)
	}
}

// runFlood is one repetition of a flood workload.
func runFlood(spec repSpec, sh floodShape) (*repResult, error) {
	res := newRepResult()
	t0 := nowNs()
	bed, err := newTCPBed(sh.bed(spec, ackStride))
	if err != nil {
		return nil, err
	}
	res.setups = []float64{float64(nowNs()-t0) / 1e9}
	f := startFlood(bed, sh, spec.seed)
	w, confirmed, idleFrac := measureBed(bed, spec, &f.idle)
	runErr := f.finish()
	ackMs, waveMs, dropped := bedSamples(bed)
	w.e2e(res, confirmed, ackMs, waveMs)
	w.counters(res, confirmed)
	res.layer["gen.idle_frac"] = idleFrac / float64(sh.drivers)
	res.layer["gen.samples_dropped"] = float64(dropped)
	closeBed(bed, res, &w)
	return res, runErr
}

// runWaveSync is one repetition of wave_sync: one driver, a wave of four
// watched adds to each of 16 switches, the next wave released only when
// all 64 futures have resolved (RUMAware off: futures, not wire acks).
func runWaveSync(spec repSpec) (*repResult, error) {
	sh := waveSync
	res := newRepResult()
	t0 := nowNs()
	bed, err := newTCPBed(sh.bed(spec, waveStride))
	if err != nil {
		return nil, err
	}
	res.setups = []float64{float64(nowNs()-t0) / 1e9}

	stop, done := make(chan struct{}), make(chan error, 1)
	var idle atomic.Int64 // ns blocked in AwaitAck
	go func() {
		r := rng{s: streamSeed(spec.seed, spec.workload, -1)}
		order := r.perm(sh.switches)
		hs := make([]*future, 0, sh.switches*sh.adds)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			// Seeded visiting order: rotate the permutation each wave.
			rot := r.intn(len(order))
			order = append(order[rot:], order[:rot]...)
			t := nowNs()
			blocked, h, err := bed.wave(order, sh.adds, hs)
			hs = h
			if err != nil {
				done <- err
				return
			}
			idle.Add(blocked)
			bed.eps[0].tr.addWave(clipNs(nowNs() - t))
		}
	}()
	w, confirmed, idleFrac := measureBed(bed, spec, &idle)
	close(stop)
	runErr := <-done

	ackMs, waveMs, dropped := bedSamples(bed)
	w.e2e(res, confirmed, ackMs, waveMs)
	w.counters(res, confirmed)
	res.layer["gen.idle_frac"] = idleFrac
	res.layer["gen.samples_dropped"] = float64(dropped)
	closeBed(bed, res, &w)
	return res, runErr
}

// runFatTreeSim calls the fat-tree churn harness back to back for the
// window. Every call builds its own bed, so set-up is the part of a call
// outside its churn phase, and throughput is confirmed updates per
// second of churn phase.
func runFatTreeSim(spec repSpec) (*repResult, error) {
	res := newRepResult()
	var first fatTreeCall
	for end := nowNs() + int64(spec.warm); nowNs() < end || first.updates == 0; {
		c, err := fatTreeChurn()
		if err != nil {
			return nil, err
		}
		first = c
	}
	var w window
	var calls []fatTreeCall
	w.p0 = snapProc()
	for end := w.p0.wallNs + int64(spec.measure); nowNs() < end || len(calls) == 0; {
		c, err := fatTreeChurn()
		if err != nil {
			return nil, err
		}
		calls = append(calls, c)
	}
	w.p1 = snapProc()

	var confirmed, churnNs int64
	var waveMs, ackP50, ackP99 []float64
	diverged := false
	for i, c := range calls {
		res.attempted += int64(c.updates)
		res.failed += int64(c.updates - c.completed)
		confirmed += int64(c.completed)
		churnNs += c.churnNs
		res.setups = append(res.setups, float64(c.wallNs-c.churnNs)/1e9)
		waveMs = append(waveMs, float64(c.churnNs)/1e6)
		// The harness exposes no per-update hook, so an update's wall
		// latency is its simulated latency at this call's simulation
		// speed (wall ns per simulated ns).
		speed := float64(c.churnNs) / float64(c.simElapsed.Nanoseconds())
		ackP50 = append(ackP50, float64(c.simP50.Nanoseconds())/1e6*speed)
		ackP99 = append(ackP99, float64(c.simP99.Nanoseconds())/1e6*speed)
		if !diverged && (c.simP50 != first.simP50 || c.simP99 != first.simP99 || c.probes != first.probes) {
			diverged = true
			res.breaches = append(res.breaches, fmt.Sprintf("fattree_sim: call %d simulated differently from the first (p50 %v vs %v, p99 %v vs %v, probes %d vs %d): the simulation is not deterministic",
				i, c.simP50, first.simP50, c.simP99, first.simP99, c.probes, first.probes))
		}
		w.c1.probes += c.probes
		w.c1.fallbacks += c.fallbacks
		w.c1.swBarriers += int64(c.switchBarriers)
	}
	if res.failed != 0 {
		res.breaches = append(res.breaches, fmt.Sprintf("fattree_sim: %d of %d updates failed or were never acked", res.failed, res.attempted))
	}
	sort.Float64s(waveMs)
	w.e2e(res, confirmed, nil, waveMs)
	w.counters(res, confirmed)
	res.samples = len(calls)
	res.e2e["confirmed_per_s"] = float64(confirmed) / (float64(churnNs) / 1e9)
	res.e2e["ack_p50_ms"] = median(ackP50)
	res.e2e["ack_p99_ms"] = median(ackP99)
	res.layer["sim.ack_p50_ms"] = float64(first.simP50.Nanoseconds()) / 1e6
	res.layer["sim.ack_p99_ms"] = float64(first.simP99.Nanoseconds()) / 1e6
	res.layer["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	if spec.trace {
		// The harness is a black box: the spans are per call, in wall time.
		at := int64(0)
		for i, c := range calls {
			id := fmt.Sprintf("fattree_sim/call/%d", i)
			res.spans = append(res.spans,
				span{ID: id, Name: "update", Start: at, End: at + c.wallNs},
				span{ID: id, Name: "harness.setup", Parent: "update", Start: at, End: at + c.wallNs - c.churnNs},
				span{ID: id, Name: "harness.churn", Parent: "update", Start: at + c.wallNs - c.churnNs, End: at + c.wallNs})
			at += c.wallNs
		}
	}
	return res, nil
}

func triangleSetup(seed int64) (float64, error) {
	t0 := nowNs()
	if _, err := newTriangleBed(seed); err != nil {
		return 0, err
	}
	return float64(nowNs()-t0) / 1e9, nil
}

// exactCycles is how many cycles after the first feed hw_triangle's
// simulated-time metrics.
const exactCycles = 4

// runHWTriangle is one repetition of hw_triangle: cycles of 300 adds and
// their 300 strict deletes on the hardware-model switch, at most 50
// unconfirmed, every ack audited against the switch's activation log.
func runHWTriangle(spec repSpec) (*repResult, error) {
	res := newRepResult()
	t0 := nowNs()
	bed, err := newTriangleBed(spec.seed)
	if err != nil {
		return nil, err
	}
	res.setups = []float64{float64(nowNs()-t0) / 1e9}

	bed.run(nowNs() + int64(spec.warm))
	var w window
	w.c0, w.p0 = bed.counters(), snapProc()
	acked0, sim0, cyc0 := bed.acked, bed.simNow(), len(bed.cycDone)
	bed.run(w.p0.wallNs + int64(spec.measure))
	w.p1, w.c1 = snapProc(), bed.counters()
	confirmed, sim1 := int64(bed.acked-acked0), bed.simNow()
	bed.drain()

	// An update's wall latency is its simulated latency at the window's
	// simulation speed (wall ns per simulated ns).
	speed := float64(w.p1.wallNs-w.p0.wallNs) / float64((sim1 - sim0).Nanoseconds())
	var ackMs []float64
	for i := range bed.ups {
		if u := &bed.ups[i]; u.ackAt > sim0 && u.ackAt <= sim1 {
			ackMs = append(ackMs, float64((u.ackAt-u.sendAt).Nanoseconds())/1e6*speed)
		}
	}
	sort.Float64s(ackMs)
	var waveMs []float64
	for i := max(cyc0, 1); i < len(bed.cycDone); i++ {
		if bed.cycDone[i].wallNs <= w.p1.wallNs {
			waveMs = append(waveMs, float64(bed.cycDone[i].wallNs-bed.cycDone[i-1].wallNs)/1e6)
		}
	}
	sort.Float64s(waveMs)
	if len(waveMs) == 0 {
		// Too short a window for a whole cycle: scale what was done.
		waveMs = []float64{w.seconds() * 1e3 * 2 * triangleRules / float64(max(confirmed, 1))}
	}
	w.e2e(res, confirmed, ackMs, waveMs)
	w.counters(res, confirmed)

	a := bed.audit()
	res.attempted = int64(len(bed.ups))
	res.failed = int64(a.unacked + a.wrongCode)
	note := func(n int, what string) {
		if n != 0 {
			res.breaches = append(res.breaches, fmt.Sprintf("hw_triangle: %d %s", n, what))
		}
	}
	note(a.unacked, "updates never acked by the drain deadline")
	note(a.wrongCode, "acks whose outcome does not match the command")
	note(a.falseAcks, "acks before the rule's first data-plane activation")
	if a.tableDiff != "" {
		res.breaches = append(res.breaches, "hw_triangle: "+a.tableDiff)
	}
	// Everything measured in simulated time or as a count comes from a
	// fixed set of updates — cycles 1 to exactCycles, the same in every
	// run — so that it repeats exactly; the wall-clock window above holds
	// a different number of updates each time.
	lo, hi, c0, c1 := 0, len(bed.ups), w.c0, w.c1
	if len(bed.cycDone) > exactCycles {
		lo, hi = 2*triangleRules, 2*triangleRules*(exactCycles+1)
		c0, c1 = bed.cycDone[0].c, bed.cycDone[exactCycles].c
		layerCounters(res.layer, c0, c1, int64(hi-lo))
	}
	var simMs, lagMs []float64
	for i := lo; i < hi; i++ {
		if u := &bed.ups[i]; u.ackAt != 0 && a.confirm[i] != (interval{}) {
			simMs = append(simMs, float64((u.ackAt-u.sendAt).Nanoseconds())/1e6)
			lagMs = append(lagMs, float64(a.confirm[i].end-a.confirm[i].start)/1e6)
		}
	}
	sort.Float64s(simMs)
	sort.Float64s(lagMs)
	res.layer["sim.ack_p50_ms"] = tailPercentile(simMs, 0.5)
	res.layer["sim.ack_p99_ms"] = tailPercentile(simMs, 0.99, 0.95, 0.9)
	res.layer["sim.ack_lag_p50_ms"] = tailPercentile(lagMs, 0.5)
	res.layer["sim.ack_lag_p99_ms"] = tailPercentile(lagMs, 0.99, 0.95, 0.9)
	res.layer["false_acks"] = float64(a.falseAcks)
	res.layer["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	if spec.trace {
		for i := range bed.ups {
			u := &bed.ups[i]
			if i%traceEvery != 0 || u.ackAt == 0 || a.install[i] == (interval{}) {
				continue
			}
			id := fmt.Sprintf("hw_triangle/s2/%d", u.xid)
			res.spans = append(res.spans,
				span{ID: id, Name: "update", Start: u.sendAt.Nanoseconds(), End: u.ackAt.Nanoseconds()},
				span{ID: id, Name: "switch.install", Parent: "update", Start: a.install[i].start, End: a.install[i].end},
				span{ID: id, Name: "core.confirm", Parent: "update", Start: a.confirm[i].start, End: a.confirm[i].end})
		}
	}
	return res, nil
}

// ---- the ladder ----------------------------------------------------------

// rung is one step of the outside-in ladder: the same shape — one
// switch, loopback TCP, 256 in flight, 16 per batch — with one more
// layer between the controller's conn and the stub's than the rung above.
type rung struct {
	name  string
	shape floodShape
}

func ladderShape(layer, technique string, barrierLayer bool) floodShape {
	return floodShape{layer: layer, technique: technique, rumAware: true, barrierLayer: barrierLayer,
		switches: 1, drivers: 1, window: 256, adds: 16, ctrlBarrier: barrierLayer}
}

var ladder = []rung{
	{"transport.tcp", ladderShape(layerDirect, "", false)},
	{"proxy.splice", ladderShape(layerSplice, "", false)},
	{"core.nowait", ladderShape(layerRUM, "no-wait", false)},
	{"core.barriers", ladderShape(layerRUM, "barriers", false)},
	{"core.barrierlayer", ladderShape(layerRUM, "barriers", true)},
	{"cluster.route", ladderShape(layerCluster, "barriers", true)},
}

// stopWait64 is BenchmarkAckPath's shape: one batch of 64 in flight.
var stopWait64 = floodShape{layer: layerRUM, technique: "barriers", rumAware: true,
	switches: 1, drivers: 1, window: 64, adds: 64}

// runRung floods one rung's bed for dur and returns confirmed updates
// per second and CPU microseconds per update.
func runRung(name string, sh floodShape, dur time.Duration) (perSec, cpuUs float64, err error) {
	spec := repSpec{workload: name, seed: 1, warm: dur / 4, measure: dur}
	bed, err := newTCPBed(sh.bed(spec, ackStride))
	if err != nil {
		return 0, 0, err
	}
	f := startFlood(bed, sh, spec.seed)
	w, confirmed, _ := measureBed(bed, spec, &f.idle)
	err = f.finish()
	c := bedCounts(bed)
	bed.close()
	if err == nil && (c.failed() != 0 || confirmed == 0) {
		err = fmt.Errorf("rung %s: %d confirmed in the window, %d of %d updates failed", name, confirmed, c.failed(), c.sent)
	}
	if err != nil {
		return 0, 0, err
	}
	return float64(confirmed) / w.seconds(), float64(w.p1.cpuNs-w.p0.cpuNs) / 1e3 / float64(confirmed), nil
}

// runLadder runs every rung for dur and returns the per-layer metrics.
func runLadder(dur time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, r := range ladder {
		perSec, cpuUs, err := runRung(r.name, r.shape, dur)
		if err != nil {
			return nil, err
		}
		out[r.name+"_ns_per_update"] = 1e9 / perSec
		out[r.name+"_cpu_us_per_update"] = cpuUs
	}
	perSec, _, err := runRung("core.stopwait64", stopWait64, dur)
	if err != nil {
		return nil, err
	}
	out["core.stopwait64_per_s"] = perSec
	return out, nil
}
