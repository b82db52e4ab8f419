package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, ok := percentile(s, 0.5); v != 501 || !ok {
		t.Errorf("p50 of 1..1000 = %v supported=%v, want 501 true", v, ok)
	}
	// 1000 samples leave 9 beyond the p99: one short of a tail.
	if v, ok := percentile(s, 0.99); v != 991 || ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 991 false", v, ok)
	}
	if v, ok := percentile(append(s, 1001), 0.99); v != 991 || !ok {
		t.Errorf("p99 of 1..1001 = %v supported=%v, want 991 true", v, ok)
	}
	// Unsupported tails fall back to the highest supported quantile.
	if v := tailPercentile(s, 0.99, 0.95); v != 951 {
		t.Errorf("tail fallback = %v, want the p95 951", v)
	}
	if v := tailPercentile(s[:5], 0.99, 0.9); v != 3 {
		t.Errorf("tail of 5 samples = %v, want the median 3", v)
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v %v", v, ok)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if s := spread([]float64{90, 100, 110}); math.Abs(s-0.2) > 1e-12 {
		t.Errorf("spread = %v, want (110-90)/100", s)
	}
	if s := spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("spread of equal zeros = %v, want 0", s)
	}
	if s := spread([]float64{0, 0, 1}); !math.IsInf(s, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", s)
	}
	var m merged
	for _, v := range []float64{10, 30, 20} {
		m.add(&repResult{e2e: map[string]float64{"confirmed_per_s": v, "setup_s": v / 10}})
	}
	got := m.values()
	if v := got["confirmed_per_s"]; v.Value != 20 || *v.Spread != 1 {
		t.Errorf("merged confirmed_per_s = %v spread %v, want 20 and 1", v.Value, *v.Spread)
	}
	if v := got["setup_s"]; v.Value != 2 {
		t.Errorf("merged setup_s = %v, want 2", v.Value)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"tiling children", []interval{{100, 130}, {130, 200}}, 0},
		{"gap", []interval{{100, 120}, {150, 200}}, 30},
		{"overlap counted once", []interval{{100, 160}, {140, 180}}, 20},
		{"clipped to the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"empty and inverted ignored", []interval{{150, 150}, {180, 170}}, 100},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
	spans := []span{
		{ID: "w/sw00/61", Name: "update", Start: 0, End: 100},
		{ID: "w/sw00/61", Name: "ctrl.send", Parent: "update", Start: 0, End: 10},
		{ID: "w/sw00/61", Name: "proxy.forward", Parent: "update", Start: 10, End: 90},
	}
	sum := summarize(spans)
	if sum.updates != 1 || sum.selfP50 != 10 || math.Abs(sum.coverage-0.9) > 1e-12 || sum.p50["proxy.forward"] != 80 {
		t.Errorf("summary %+v: want 1 update, self 10, coverage 0.9, forward 80", sum)
	}
}

func noDeletes(int) bool { return false }

func TestTrackerExactlyOnce(t *testing.T) {
	var covered atomic.Uint32
	tr := newTracker(32, 1, 64)
	tr.covered = &covered
	first := tr.reserve(4, noDeletes, 0) // xids 1..4
	if first != 1 {
		t.Fatalf("first xid %d, want 1", first)
	}
	covered.Store(4)
	tr.ack(1, ackInstalled)
	tr.ack(2, ackInstalled)
	tr.ack(2, ackInstalled) // the duplicate
	tr.ack(9, ackInstalled) // never sent
	tr.ack(3, ackRemoved)   // an add acked as removed
	// xid 4 is the missing ack.
	c := tr.counts()
	if c.duplicate != 1 || c.unknown != 1 || c.wrongCode != 1 || c.sent-c.acked != 1 {
		t.Errorf("counts %+v: want 1 duplicate, 1 unknown, 1 wrong code, 1 missing", c)
	}
	if c.failed() != 4 {
		t.Errorf("failed = %d, want 4", c.failed())
	}
	if len(c.breaches("w")) != 4 {
		t.Errorf("breaches %q: want 4", c.breaches("w"))
	}

	clean := newTracker(32, 1, 64)
	clean.covered = &covered
	clean.reserve(2, func(i int) bool { return i == 1 }, 0)
	clean.ack(1, ackInstalled)
	clean.ack(2, ackRemoved)
	if c := clean.counts(); c.failed() != 0 || len(c.breaches("w")) != 0 {
		t.Errorf("clean stream reported %+v %q", c, c.breaches("w"))
	}
}

func TestTrackerFalseAckAndBarriers(t *testing.T) {
	var covered atomic.Uint32
	tr := newTracker(32, 1, 64)
	tr.covered = &covered
	tr.reserve(2, noDeletes, 0)
	tr.addBarrier(barrierXIDBase|1, 0)
	covered.Store(1)
	tr.ack(1, ackInstalled)
	tr.ack(2, ackInstalled) // the stub has not answered a barrier covering xid 2
	if c := tr.counts(); c.falseAcks != 1 {
		t.Errorf("false acks = %d, want 1", c.falseAcks)
	}
	tr.barrierReply(barrierXIDBase|1, 0)
	if c := tr.counts(); c.barrierEarly != 0 || c.barriersOpen != 0 {
		t.Errorf("barrier after both acks: %+v", c)
	}

	tr.reserve(2, noDeletes, 0) // xids 3, 4
	tr.addBarrier(barrierXIDBase|2, 0)
	covered.Store(4)
	tr.ack(3, ackInstalled)
	tr.barrierReply(barrierXIDBase|2, 0) // before the ack of xid 4
	tr.barrierReply(barrierXIDBase|7, 0) // never requested
	tr.addBarrier(barrierXIDBase|3, 0)   // never answered
	c := tr.counts()
	if c.barrierEarly != 1 || c.barrierUnknown != 1 || c.barriersOpen != 1 {
		t.Errorf("counts %+v: want 1 early, 1 unknown, 1 open barrier", c)
	}
}

func TestTrackerSamplesAndWake(t *testing.T) {
	wake := make(chan struct{}, 1)
	tr := newTracker(32, 2, 8)
	tr.wake, tr.wakeAt, tr.batchWave = wake, 2, true
	tr.startRecording()
	tr.reserve(4, noDeletes, nowNs())
	for xid := uint32(1); xid <= 4; xid++ {
		tr.ack(xid, ackInstalled)
	}
	if len(tr.ackNs) != 2 || len(tr.waveNs) != 1 {
		t.Errorf("%d ack samples and %d wave samples, want 2 (stride 2) and 1 (one batch)", len(tr.ackNs), len(tr.waveNs))
	}
	select {
	case <-wake:
	default:
		t.Error("no wake-up when the in-flight count fell to wakeAt")
	}
}

func genStream(seed int64) []ruleOp {
	var ops []ruleOp
	for sw := 0; sw < 3; sw++ {
		g := newOpGen(seed, "fabric_fanout", sw, 4)
		for b := 0; b < 50; b++ {
			ops = g.batch(ops, 8, 8)
		}
	}
	return ops
}

func TestSeedDeterminism(t *testing.T) {
	a, err := encodeOps(genStream(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := encodeOps(genStream(7))
	c, _ := encodeOps(genStream(8))
	if len(a) != 3*50*16*80 {
		t.Errorf("stream is %d bytes, want 80 per FlowMod", len(a))
	}
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated two different FlowMod streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated the same FlowMod stream")
	}
	// Every delete names a rule its own batch added.
	ops := genStream(7)
	for i := 0; i < len(ops); i += 16 {
		added := make(map[uint32]bool)
		for _, op := range ops[i : i+8] {
			added[op.Dst] = true
		}
		for _, op := range ops[i+8 : i+16] {
			if !op.Del || !added[op.Dst] {
				t.Fatalf("batch at %d: op %+v is not a delete of one of its adds", i, op)
			}
		}
	}
	r1, r2 := rng{s: streamSeed(1, "w", -1)}, rng{s: streamSeed(2, "w", -1)}
	p1, p2 := r1.perm(32), r2.perm(32)
	same := true
	for i := range p1 {
		same = same && p1[i] == p2[i]
	}
	if same {
		t.Error("different seeds gave the same switch visiting order")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "confirmed_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d            metricDef
		a, b, sa, sb float64
		want         string
	}{
		{lower, 1.0, 1.05, 0.02, 0.02, within},
		{lower, 1.0, 0.5, 0.02, 0.02, within}, // an improvement is never a regression
		{lower, 1.0, 1.2, 0.02, 0.02, regressed},
		{lower, 1.0, 1.2, 0.3, 0.02, unresolved},
		{higher, 1000, 950, 0.01, 0.01, within},
		{higher, 1000, 850, 0.01, 0.01, regressed},
		{higher, 1000, 1500, 0.01, 0.01, within},
		{higher, 1000, 1000, 0.01, 0.5, unresolved},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("%s a=%v b=%v spreads %v/%v: %s, want %s", tc.d.Name, tc.a, tc.b, tc.sa, tc.sb, got, tc.want)
		}
	}
}

func TestCompareSetupFloor(t *testing.T) {
	file := func(setup, rate float64) *resultFile {
		zero := 0.0
		rf := &resultFile{Workloads: make(map[string]workloadResult)}
		for _, def := range workloads {
			e2e := make(map[string]value)
			for _, d := range endToEnd {
				e2e[d.Name] = value{Value: 1, Unit: d.Unit, Spread: &zero}
			}
			e2e["setup_s"] = value{Value: setup, Unit: "s", Spread: &zero}
			e2e["confirmed_per_s"] = value{Value: rate, Unit: "1/s", Spread: &zero}
			rf.Workloads[def.name] = workloadResult{EndToEnd: e2e, PerLayer: map[string]value{}}
		}
		return rf
	}
	for _, tc := range []struct {
		name           string
		setupA, setupB float64
		rateA, rateB   float64
		want           int
	}{
		{"set-up doubles below the floor", 0.004, 0.008, 1000, 1000, 0},
		{"set-up doubles above the floor", 0.1, 0.2, 1000, 1000, 1},
		{"throughput drops by a third", 0.004, 0.004, 1000, 660, 1},
		{"throughput rises", 0.004, 0.004, 1000, 2000, 0},
	} {
		if got := compareResults(file(tc.setupA, tc.rateA), file(tc.setupB, tc.rateB), endToEnd); got != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// manifest is BENCHMARK.json as the benchmark driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over the 200 allowed", w.name, len(w.why))
		}
	}
	check := func(kind string, declared, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
			return
		}
		for i := range code {
			if declared[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, declared[i], code[i])
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, over the 128 allowed", len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload for 0.3 s, untraced and traced, through
// the same code as a full run: the five beds still build, every update
// is acknowledged exactly once, and the result and trace files appear.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five beds over loopback TCP and the simulator")
	}
	out := t.TempDir()
	if code := run([]string{"-smoke", "-seed", "3", "-out", out}); code != 0 {
		t.Fatalf("smoke run exited with %d", code)
	}
	rf, err := loadResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rf.Env.NProc == 0 || rf.Env.GoVersion == "" || rf.Env.Kernel == "" || rf.Env.Network != "loopback" {
		t.Errorf("result file does not describe the machine: %+v", rf.Env)
	}
	for _, def := range workloads {
		w, ok := rf.Workloads[def.name]
		if !ok {
			t.Errorf("%s: missing from the result file", def.name)
			continue
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d breaches=%q", def.name, w.Correct, w.Attempted, w.Failed, w.Breaches)
		}
		for _, d := range endToEnd {
			if v := w.EndToEnd[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", def.name, d.Name, v)
			}
		}
		if n := w.PerLayer["trace.sampled_updates"].Value; n == 0 {
			t.Errorf("%s: the traced repetition sampled no update", def.name)
		}
		if st, err := os.Stat(filepath.Join(out, "trace-"+def.name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty (%v)", def.name, err)
		}
	}
	// A result compared with itself is within every bound.
	defs, err := loadBounds(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range rf.Workloads {
		for _, v := range w.EndToEnd {
			*v.Spread = 0
		}
		rf.Workloads[name] = w
	}
	if code := compareResults(rf, rf, defs); code != 0 {
		t.Errorf("comparing a result with itself exited with %d", code)
	}
}
