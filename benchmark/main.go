// Command benchmark is this repository's benchmark: five closed-loop
// end-to-end workloads, an outside-in ladder that adds one layer per rung,
// pure-function rungs, and a traced run per workload. See README.md.
//
//	go run ./benchmark -seed 1 -out benchmark/out     the whole suite
//	go run ./benchmark --workload ack_flood --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before it
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports all
// of them. BENCHMARK.json repeats this list (a test keeps them equal).
// The timing bounds are the widest allowed because the reference box is:
// two sets of ten 20-second runs taken 20 minutes apart differed by up to
// 16 % in their medians and spread by up to 16 % between their quartiles
// (wave_sync); allocation counts repeat to 0.1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"confirmed_per_s", "1/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"ack_p99_ms", "ms", "lower", 0.25},
	{"wave_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_update", "us", "lower", 0.25},
	{"allocs_per_update", "count", "lower", 0.02},
}

// perLayer is every single-layer metric, in the order the README
// explains them.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, r := range ladder {
		out = append(out,
			metricDef{Name: r.name + "_ns_per_update", Unit: "ns", Better: "lower"},
			metricDef{Name: r.name + "_cpu_us_per_update", Unit: "us", Better: "lower"})
	}
	return append(out, []metricDef{
		{Name: "core.stopwait64_per_s", Unit: "1/s", Better: "higher"},

		{Name: "of.encode_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "of.decode_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "of.decode_allocs_per_msg", Unit: "count", Better: "lower"},
		{Name: "transport.pipe_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.wheel_schedule_ns", Unit: "ns", Better: "lower"},
		{Name: "hsa.probe_synth_us", Unit: "us", Better: "lower"},
		{Name: "flowtable.apply_ns", Unit: "ns", Better: "lower"},
		{Name: "flowtable.lookup_ns", Unit: "ns", Better: "lower"},
		{Name: "aggregate.apply_ns_per_rule", Unit: "ns", Better: "lower"},
		{Name: "journal.append_ns_per_intent", Unit: "ns", Better: "lower"},

		{Name: "core.probes_per_update", Unit: "count", Better: "lower"},
		{Name: "core.fallbacks", Unit: "count", Better: "lower"},
		{Name: "core.sheds", Unit: "count", Better: "lower"},
		{Name: "core.outbox_high_water", Unit: "count", Better: "lower"},
		{Name: "core.live_updates_leak", Unit: "count", Better: "lower"},
		{Name: "switch.barriers_per_update", Unit: "count", Better: "lower"},
		{Name: "switch.pktouts_per_update", Unit: "count", Better: "lower"},
		{Name: "switch.pktins_per_update", Unit: "count", Better: "lower"},
		{Name: "switch.syncs", Unit: "count", Better: "lower"},
		{Name: "transport.sw_bytes_per_update", Unit: "count", Better: "lower"},
		{Name: "transport.sw_reads_per_update", Unit: "count", Better: "lower"},
		{Name: "transport.ctrl_bytes_per_update", Unit: "count", Better: "lower"},
		{Name: "transport.ctrl_reads_per_update", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_update", Unit: "count", Better: "lower"},
		{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
		{Name: "runtime.heap_inuse_mb", Unit: "MiB", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "gen.idle_frac", Unit: "frac", Better: "higher"},
		{Name: "gen.samples_dropped", Unit: "count", Better: "lower"},
		{Name: "wave.p99_ms", Unit: "ms", Better: "lower"},
		{Name: "ack.p999_ms", Unit: "ms", Better: "lower"},

		{Name: "sim.ack_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.ack_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.ack_lag_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.ack_lag_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "false_acks", Unit: "count", Better: "lower"},
		{Name: "failed_frac", Unit: "frac", Better: "lower"},

		{Name: "trace.ctrl_send_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.proxy_forward_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.proxy_barrier_wait_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.proxy_confirm_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.ctrl_future_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.switch_install_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.core_confirm_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.harness_setup_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.harness_churn_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.update_self_p50_us", Unit: "us", Better: "lower"},
		{Name: "trace.coverage_frac", Unit: "frac", Better: "higher"},
		{Name: "trace.sampled_updates", Unit: "count", Better: "higher"},
		{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	}...)
}()

// traceMetrics turns a traced repetition's spans into per-layer metrics.
func traceMetrics(spans []span) map[string]float64 {
	sum := summarize(spans)
	out := map[string]float64{
		"trace.sampled_updates":    float64(sum.updates),
		"trace.coverage_frac":      sum.coverage,
		"trace.update_self_p50_us": sum.selfP50 / 1e3,
	}
	for name, ns := range sum.p50 {
		key := "trace." + strings.ReplaceAll(name, ".", "_") + "_p50_"
		switch {
		case name == "update":
		case strings.HasPrefix(name, "ctrl.") || strings.HasPrefix(name, "proxy."):
			out[key+"us"] = ns / 1e3
		default:
			out[key+"ms"] = ns / 1e6
		}
	}
	return out
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max−min)/median over the repetitions behind Value.
	Spread *float64  `json:"spread,omitempty"`
	Reps   []float64 `json:"reps,omitempty"`
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// merged folds repetitions into medians (end-to-end) and collects their
// verdicts.
type merged struct {
	e2e       map[string][]float64
	attempted int64
	failed    int64
	breaches  []string
	samples   int
}

func (m *merged) add(r *repResult) {
	if m.e2e == nil {
		m.e2e = make(map[string][]float64)
	}
	for k, v := range r.e2e {
		m.e2e[k] = append(m.e2e[k], v)
	}
	m.attempted += r.attempted
	m.failed += r.failed
	m.breaches = append(m.breaches, r.breaches...)
	m.samples += r.samples
}

// values reports the median of the repetitions for every end-to-end
// metric, with the spread beside it.
func (m *merged) values() map[string]value {
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		reps := m.e2e[d.Name]
		sp := spread(reps)
		out[d.Name] = value{Value: median(reps), Unit: d.Unit, Spread: &sp, Reps: reps}
	}
	return out
}

func layerValues(ms ...map[string]float64) map[string]value {
	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		v := 0.0
		for _, m := range ms {
			if x, ok := m[d.Name]; ok {
				v = x
			}
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out
}

// warmFor is the warm-up before a window in single-workload mode: long
// enough to fill pools, write buffers and rings, short enough to leave
// the run's time to measuring.
func warmFor(measure time.Duration) time.Duration {
	return min(measure/4, 500*time.Millisecond)
}

// contractReps is how many repetitions, each on a fresh bed, a
// single-workload run folds into each reported median. Throughput on this
// kind of machine differs more between beds and between seconds than
// within one window, so several short repetitions are steadier than one
// long one.
const contractReps = 5

// runContract is the single-workload mode the benchmark driver uses:
// untraced it reports every end-to-end metric, traced every per-layer
// one. Its last line of output is the result.
func runContract(name string, seed int64, seconds float64, trace bool) int {
	def := findWorkload(name)
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	total := time.Duration(seconds * float64(time.Second))
	line := contractLine{Correct: true}
	var m merged
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	if !trace {
		measure := total / contractReps
		for i := 0; i < contractReps; i++ {
			r, err := def.rep(repSpec{workload: name, seed: seed, warm: warmFor(measure), measure: measure})
			if err != nil {
				return fail(err)
			}
			m.add(r)
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d/%d: %.0f confirmed/s, ack p50 %.4f ms p99 %.4f ms, %.3f cpu-us/update\n",
				name, i+1, contractReps, r.e2e["confirmed_per_s"], r.e2e["ack_p50_ms"], r.e2e["ack_p99_ms"], r.e2e["cpu_us_per_update"])
		}
		line.Metrics = m.values()
	} else {
		// Half the time on the workload — one untraced and one traced
		// repetition, whose difference is the tracing overhead — and
		// half on the rungs.
		measure := total / 4
		plain, err := def.rep(repSpec{workload: name, seed: seed, warm: warmFor(measure), measure: measure})
		if err != nil {
			return fail(err)
		}
		traced, err := def.rep(repSpec{workload: name, seed: seed, warm: warmFor(measure), measure: measure, trace: true})
		if err != nil {
			return fail(err)
		}
		m.add(plain)
		m.add(traced)
		lad, err := runLadder(total / 24)
		if err != nil {
			return fail(err)
		}
		pure, err := pureRungs(total / 48)
		if err != nil {
			return fail(err)
		}
		tm := traceMetrics(traced.spans)
		tm["trace.overhead_frac"] = 1 - traced.e2e["confirmed_per_s"]/plain.e2e["confirmed_per_s"]
		line.Metrics = layerValues(lad, pure, plain.layer, tm)
	}
	line.Attempted, line.Failed = m.attempted, m.failed
	for _, b := range m.breaches {
		fmt.Fprintln(os.Stderr, "benchmark: BREACH:", b)
		line.Correct = false
	}
	for k, v := range line.Metrics {
		v.Spread, v.Reps = nil, nil
		line.Metrics[k] = v
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}

// ---- the whole suite -----------------------------------------------------

// envInfo is written into every result file: numbers from different
// machines must never be compared.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Network    string  `json:"network"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"repetitions"`
	MeasureS   float64 `json:"measure_s"`
}

func readEnv(seed int64, reps int, measure time.Duration) envInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, Network: "loopback", Seed: seed, Reps: reps, MeasureS: measure.Seconds()}
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Correct   bool             `json:"correct"`
	Breaches  []string         `json:"breaches,omitempty"`
	Samples   int              `json:"ack_latency_samples"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Env       envInfo                   `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
	Rungs     map[string]value          `json:"rungs,omitempty"`
}

// suiteOpts sizes a suite run.
type suiteOpts struct {
	seed          int64
	out           string
	reps          int
	warm, measure time.Duration
	traced        time.Duration // 0: no traced repetition
	rung, pure    time.Duration // 0: no rungs
}

// runSuite runs every workload for reps repetitions, interleaved
// round-robin so a noisy interval does not land on one workload, then a
// traced repetition each, then the rungs.
func runSuite(o suiteOpts) (*resultFile, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rf := &resultFile{Env: readEnv(o.seed, o.reps, o.measure), Workloads: make(map[string]workloadResult)}
	ms := make(map[string]*merged)
	plainLayer := make(map[string]map[string]float64)
	for rep := 0; rep < o.reps; rep++ {
		for _, def := range workloads {
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d/%d\n", def.name, rep+1, o.reps)
			r, err := def.rep(repSpec{workload: def.name, seed: o.seed, warm: o.warm, measure: o.measure})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", def.name, err)
			}
			if ms[def.name] == nil {
				ms[def.name] = &merged{}
			}
			ms[def.name].add(r)
			plainLayer[def.name] = r.layer
		}
	}
	for _, def := range workloads {
		m := ms[def.name]
		tm := map[string]float64{}
		if o.traced > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced repetition\n", def.name)
			r, err := def.rep(repSpec{workload: def.name, seed: o.seed, warm: o.warm, measure: o.traced, trace: true})
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", def.name, err)
			}
			m.breaches = append(m.breaches, r.breaches...)
			tm = traceMetrics(r.spans)
			tm["trace.overhead_frac"] = 1 - r.e2e["confirmed_per_s"]/median(m.e2e["confirmed_per_s"])
			if err := writeJSONL(filepath.Join(o.out, "trace-"+def.name+".jsonl"), r.spans); err != nil {
				return nil, err
			}
		}
		rf.Workloads[def.name] = workloadResult{
			EndToEnd: m.values(), PerLayer: layerValues(plainLayer[def.name], tm),
			Attempted: m.attempted, Failed: m.failed, Correct: len(m.breaches) == 0,
			Breaches: m.breaches, Samples: m.samples,
		}
	}
	if o.rung > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: ladder and pure-function rungs")
		lad, err := runLadder(o.rung)
		if err != nil {
			return nil, err
		}
		pure, err := pureRungs(o.pure)
		if err != nil {
			return nil, err
		}
		rf.Rungs = make(map[string]value)
		for _, d := range perLayer {
			for _, src := range []map[string]float64{lad, pure} {
				if v, ok := src[d.Name]; ok {
					rf.Rungs[d.Name] = value{Value: v, Unit: d.Unit}
				}
			}
		}
	}
	buf, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rf, nil
}

// printSuite prints every metric by name with its unit.
func printSuite(rf *resultFile) {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s kernel=%s network=%s seed=%d reps=%d measure=%gs\n",
		rf.Env.NProc, rf.Env.GoMaxProcs, rf.Env.GoVersion, rf.Env.Kernel, rf.Env.Network, rf.Env.Seed, rf.Env.Reps, rf.Env.MeasureS)
	for _, def := range workloads {
		w := rf.Workloads[def.name]
		fmt.Printf("\n%s — %s\n  correct=%v attempted=%d failed=%d ack-latency samples=%d\n",
			def.name, def.why, w.Correct, w.Attempted, w.Failed, w.Samples)
		for _, b := range w.Breaches {
			fmt.Printf("  BREACH: %s\n", b)
		}
		for _, d := range endToEnd {
			v := w.EndToEnd[d.Name]
			fmt.Printf("  %-34s %14.4f %-6s spread %.3f (bound %.2f)\n", d.Name, v.Value, v.Unit, *v.Spread, d.Bound)
		}
		for _, d := range perLayer {
			if _, isRung := rf.Rungs[d.Name]; isRung {
				continue
			}
			v := w.PerLayer[d.Name]
			if v.Value != 0 {
				fmt.Printf("  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	if rf.Rungs == nil {
		return
	}
	fmt.Printf("\nladder (1 switch, loopback TCP, 256 in flight, 16 per batch; delta = this rung minus the rung above)\n")
	prevNs, prevCPU := 0.0, 0.0
	for _, r := range ladder {
		ns, cpu := rf.Rungs[r.name+"_ns_per_update"].Value, rf.Rungs[r.name+"_cpu_us_per_update"].Value
		fmt.Printf("  %-20s %9.1f ns/update (%+8.1f)  %7.3f cpu-us/update (%+7.3f)  %10.0f updates/s\n",
			r.name, ns, ns-prevNs, cpu, cpu-prevCPU, 1e9/ns)
		prevNs, prevCPU = ns, cpu
	}
	fmt.Printf("  %-20s %10.0f updates/s (64 in flight, 64 per batch: BenchmarkAckPath's shape)\n",
		"core.stopwait64", rf.Rungs["core.stopwait64_per_s"].Value)
	fmt.Printf("\npure-function rungs\n")
	for _, d := range perLayer[2*len(ladder)+1:] { // past the ladder's own metrics
		if v, ok := rf.Rungs[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload and print a one-line JSON result (the benchmark driver's mode)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: rule addresses, delete order, switch visiting order")
		seconds  = fs.Float64("seconds", 12, "with -workload: how long to measure")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		out      = fs.String("out", "benchmark/out", "suite mode: directory for result.json and trace-<workload>.jsonl")
		smoke    = fs.Bool("smoke", false, "suite mode: 0.3 s per workload, one repetition, no rungs")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments; exit status reflects the verdict")
		bounds   = fs.String("bounds", "BENCHMARK.json", "with -compare: where the end-to-end bounds are declared")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *bounds)
	case *workload != "":
		return runContract(*workload, *seed, *seconds, *trace != 0)
	}
	// A repetition is 1 s of warm-up and 6 s measured; each workload
	// also gets one 3 s traced repetition.
	o := suiteOpts{seed: *seed, out: *out, reps: 3, warm: time.Second, measure: 6 * time.Second,
		traced: 3 * time.Second, rung: 2 * time.Second, pure: 300 * time.Millisecond}
	if *smoke {
		o = suiteOpts{seed: *seed, out: *out, reps: 1, warm: 100 * time.Millisecond, measure: 300 * time.Millisecond,
			traced: 300 * time.Millisecond}
	}
	rf, err := runSuite(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printSuite(rf)
	for _, w := range rf.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}
