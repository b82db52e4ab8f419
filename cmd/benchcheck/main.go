// Command benchcheck is the CI benchmark-regression gate: it compares a
// BENCH_results.json produced by the scale benchmarks (go test -bench,
// whose TestMain writes the file) against the checked-in
// BENCH_baseline.json and exits non-zero when a gated metric regressed
// beyond the tolerance.
//
// Only metrics present in the baseline are checked, so the baseline file
// doubles as the gate's configuration: omit a machine-dependent metric
// (e.g. a wall-clock latency tail) to keep it informational. A benchmark
// named in the baseline but absent from the results is itself a failure —
// a benchmark that silently stops running must not pass the gate.
// Direction is inferred from the metric name:
//
//   - *_per_sec and *speedup: higher is better; fail below
//     baseline×(1−tolerance);
//   - *_ms: lower is better; fail above baseline×(1+tolerance);
//   - metrics containing "allocs" (allocs-per-op, allocs-per-confirmed-
//     update): lower is better; fail above baseline×(1+tolerance) — a
//     zero baseline therefore demands exactly zero allocations (the
//     zero-alloc wire- and ack-path acceptance gates);
//   - anything else (switches, updates, timers — workload sizes): fail
//     below baseline (the workload must not silently shrink).
//
// The ShardContention gate is one of these baseline comparisons: the
// pre-sharding mode it was once measured against is gone, so
// sharded_updates_per_sec is held to its baseline floor, and the file
// records the last measured unsharded rate (172k updates/s) under
// "constants" — outside "benchmarks", so nothing is compared with it.
//
// Ten acceptance gates are separate and absolute, regardless of what the
// baseline says: the WireThroughput coalescing speedup must stay ≥
// -min-wire-speedup (the coalescing writer must beat the unbuffered path
// by ≥30%), the
// AckPath steady-state allocations per confirmed update must stay ≤
// -max-ack-allocs (zero: the ack hot path must not regain allocations),
// the FatTreeChurn simulated ack-latency p99 must stay ≤
// -max-fattree-p99-ms (100 ms — a ≥3x improvement over the 300.46 ms
// fixed-timeout tail this gate exists to keep fixed), the fault-wrapped
// churn's p99 must stay within -max-faultwrap-p99-ratio (1.05) of the
// plain churn's — the chaos layer must cost ≤5% when disabled — the
// PlannerFatTree verify_ratio (HSA wall time over end-to-end plan wall
// time) must stay ≤ -max-planner-verify-ratio (0.20: transient
// verification must remain a thin slice of the update pipeline), the
// Cluster handoff-recovery p99 (proxy crash → re-dial → adoption → first
// confirmed update) must stay ≤ -max-handoff-recovery-ms — the same bound
// also covers the ClusterRescue rescue-completion p99 (crash → adoption →
// every in-flight future truthfully resolved from the replicated intent
// journal), and the ClusterRescue rescue_failed_pct (journaled futures
// failed despite a reachable switch) must stay ≤ -max-rescue-failed-pct,
// zero by default — the truthful-resolution contract — the Overload
// shed_pct (updates refused with ErrOverloaded under the congested-
// control-channel workload, BenchmarkOverload) must stay ≤
// -max-overload-shed-pct — admission control may refuse work under
// congestion collapse, but a creeping refusal rate means the
// coalescing/degradation machinery stopped absorbing load — the
// Aggregation compression_ratio (logical rules over physical rules at
// the compressible workload's peak) must stay ≥ -min-aggregation-ratio
// (1.5), with its hsa_counterexamples, false_install_acks and
// false_remove_acks all exactly zero — aggregation must pay for itself
// without ever lying to the controller — and the
// 4-member cluster's aggregate confirmed rate must stay ≥
// -min-cluster-speedup × the single-proxy AckPath rate — the scale-out
// acceptance claim. Parallel speedup is physically impossible on a
// starved machine, so that last gate only enforces when the recorded
// Cluster.cpus is ≥ -min-cluster-cpus (default 8); below that it prints
// the measured ratio informationally.
//
// Usage: go run ./cmd/benchcheck [-baseline BENCH_baseline.json]
// [-results BENCH_results.json] [-tolerance 0.20]
// [-min-wire-speedup 1.3] [-max-ack-allocs 0] [-max-fattree-p99-ms 100]
// [-max-faultwrap-p99-ratio 1.05] [-max-planner-verify-ratio 0.20]
// [-min-cluster-speedup 2.0] [-min-cluster-cpus 8]
// [-max-handoff-recovery-ms 250] [-max-overload-shed-pct 15]
// [-max-rescue-failed-pct 0] [-min-aggregation-ratio 1.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type benchFile struct {
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func load(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no \"benchmarks\" object", path)
	}
	return &f, nil
}

// gateOpts holds the absolute acceptance thresholds; zero (or negative,
// where zero is meaningful) disables the corresponding gate.
type gateOpts struct {
	tolerance         float64
	minWireSpeedup    float64
	maxAckAllocs      float64
	maxFatTreeP99     float64
	maxFaultWrapRatio float64
	maxVerifyRatio    float64
	minClusterSpeedup float64
	minClusterCPUs    float64
	maxHandoffMS      float64
	maxOverloadShed   float64
	maxRescueFailed   float64
	minAggRatio       float64
}

// check runs every baseline comparison and absolute gate, writing one
// line per verdict to w, and returns the number of failures. It is the
// whole gate; main only parses flags, loads the files, and exits 1 when
// the count is non-zero.
func check(baseline, results *benchFile, opts gateOpts, w io.Writer) int {
	failures := 0
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Benchmarks[name]
		res, ok := results.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: benchmark missing from results\n", name)
			failures++
			continue
		}
		metrics := make([]string, 0, len(base))
		for m := range base {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			want := base[m]
			got, ok := res[m]
			if !ok {
				fmt.Fprintf(w, "FAIL %s.%s: metric missing from results\n", name, m)
				failures++
				continue
			}
			switch {
			case strings.HasSuffix(m, "_per_sec") || strings.HasSuffix(m, "speedup"):
				floor := want * (1 - opts.tolerance)
				if got < floor {
					fmt.Fprintf(w, "FAIL %s.%s: %.2f < %.2f (baseline %.2f − %.0f%%)\n",
						name, m, got, floor, want, opts.tolerance*100)
					failures++
					continue
				}
				fmt.Fprintf(w, "ok   %s.%s: %.2f (baseline %.2f)\n", name, m, got, want)
			case strings.Contains(m, "allocs"):
				ceil := want * (1 + opts.tolerance)
				if got > ceil {
					fmt.Fprintf(w, "FAIL %s.%s: %.4f allocs/op > %.4f (baseline %.4f + %.0f%%)\n",
						name, m, got, ceil, want, opts.tolerance*100)
					failures++
					continue
				}
				fmt.Fprintf(w, "ok   %s.%s: %.4f allocs/op (baseline %.4f)\n", name, m, got, want)
			case strings.HasSuffix(m, "_ms"):
				ceil := want * (1 + opts.tolerance)
				if got > ceil {
					fmt.Fprintf(w, "FAIL %s.%s: %.3f ms > %.3f ms (baseline %.3f + %.0f%%)\n",
						name, m, got, ceil, want, opts.tolerance*100)
					failures++
					continue
				}
				fmt.Fprintf(w, "ok   %s.%s: %.3f ms (baseline %.3f)\n", name, m, got, want)
			default:
				if got < want {
					fmt.Fprintf(w, "FAIL %s.%s: workload shrank: %.0f < baseline %.0f\n", name, m, got, want)
					failures++
					continue
				}
				fmt.Fprintf(w, "ok   %s.%s: %.0f (baseline %.0f)\n", name, m, got, want)
			}
		}
	}

	// floorGate enforces results.Benchmarks[bench][metric] ≥ min.
	floorGate := func(bench, metric string, min float64, what string) {
		got, has := results.Benchmarks[bench][metric]
		switch {
		case !has:
			fmt.Fprintf(w, "FAIL %s.%s: missing from results\n", bench, metric)
			failures++
		case got < min:
			fmt.Fprintf(w, "FAIL %s.%s: %.2fx < required %.2fx (%s)\n", bench, metric, got, min, what)
			failures++
		default:
			fmt.Fprintf(w, "ok   %s.%s: %.2fx (≥ %.2fx required)\n", bench, metric, got, min)
		}
	}

	if opts.minWireSpeedup > 0 {
		floorGate("WireThroughput", "coalesce_speedup", opts.minWireSpeedup, "coalescing writer regressed")
	}

	if opts.maxAckAllocs >= 0 {
		allocs, has := results.Benchmarks["AckPath"]["allocs_per_confirmed_update"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL AckPath.allocs_per_confirmed_update: missing from results")
			failures++
		case allocs > opts.maxAckAllocs:
			fmt.Fprintf(w, "FAIL AckPath.allocs_per_confirmed_update: %.4f > %.4f (ack hot path allocates again)\n",
				allocs, opts.maxAckAllocs)
			failures++
		default:
			fmt.Fprintf(w, "ok   AckPath.allocs_per_confirmed_update: %.4f (≤ %.4f required)\n",
				allocs, opts.maxAckAllocs)
		}
	}

	if opts.maxFatTreeP99 > 0 {
		p99, has := results.Benchmarks["FatTreeChurn"]["p99_ack_ms"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL FatTreeChurn.p99_ack_ms: missing from results")
			failures++
		case p99 > opts.maxFatTreeP99:
			fmt.Fprintf(w, "FAIL FatTreeChurn.p99_ack_ms: %.2f ms > %.2f ms (ack tail-latency fix regressed)\n",
				p99, opts.maxFatTreeP99)
			failures++
		default:
			fmt.Fprintf(w, "ok   FatTreeChurn.p99_ack_ms: %.2f ms (≤ %.2f ms required)\n", p99, opts.maxFatTreeP99)
		}
	}

	if opts.maxFaultWrapRatio > 0 {
		plain, okPlain := results.Benchmarks["FatTreeChurn"]["p99_ack_ms"]
		wrapped, okWrapped := results.Benchmarks["FatTreeChurnFaultWrapped"]["p99_ack_ms"]
		switch {
		case !okPlain || !okWrapped:
			fmt.Fprintln(w, "FAIL FatTreeChurnFaultWrapped p99 ratio: metric missing from results")
			failures++
		case plain <= 0:
			fmt.Fprintln(w, "FAIL FatTreeChurnFaultWrapped p99 ratio: FatTreeChurn.p99_ack_ms is zero")
			failures++
		case wrapped/plain > opts.maxFaultWrapRatio:
			fmt.Fprintf(w, "FAIL FatTreeChurnFaultWrapped p99 ratio: %.3f > %.2f (disabled fault wrapper is not free)\n",
				wrapped/plain, opts.maxFaultWrapRatio)
			failures++
		default:
			fmt.Fprintf(w, "ok   FatTreeChurnFaultWrapped p99 ratio: %.3f (≤ %.2f required)\n",
				wrapped/plain, opts.maxFaultWrapRatio)
		}
	}

	if opts.maxVerifyRatio > 0 {
		ratio, has := results.Benchmarks["PlannerFatTree"]["verify_ratio"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL PlannerFatTree.verify_ratio: missing from results")
			failures++
		case ratio > opts.maxVerifyRatio:
			fmt.Fprintf(w, "FAIL PlannerFatTree.verify_ratio: %.3f > %.2f (HSA verification dominates the update pipeline)\n",
				ratio, opts.maxVerifyRatio)
			failures++
		default:
			fmt.Fprintf(w, "ok   PlannerFatTree.verify_ratio: %.3f (≤ %.2f required)\n", ratio, opts.maxVerifyRatio)
		}
	}

	if opts.maxHandoffMS > 0 {
		// One recovery bound covers both crash paths: the plain handoff
		// (crash → re-dial → adoption → first fresh confirmed update) and
		// the rescue sweep (crash → adoption → every in-flight future
		// truthfully resolved).
		for _, g := range []struct{ bench, metric, what string }{
			{"Cluster", "handoff_recovery_p99_ms", "proxy-crash recovery regressed"},
			{"ClusterRescue", "rescue_completion_p99_ms", "crash-rescue completion regressed"},
		} {
			p99, has := results.Benchmarks[g.bench][g.metric]
			switch {
			case !has:
				fmt.Fprintf(w, "FAIL %s.%s: missing from results\n", g.bench, g.metric)
				failures++
			case p99 > opts.maxHandoffMS:
				fmt.Fprintf(w, "FAIL %s.%s: %.2f ms > %.2f ms (%s)\n",
					g.bench, g.metric, p99, opts.maxHandoffMS, g.what)
				failures++
			default:
				fmt.Fprintf(w, "ok   %s.%s: %.2f ms (≤ %.2f ms required)\n",
					g.bench, g.metric, p99, opts.maxHandoffMS)
			}
		}
	}

	if opts.maxRescueFailed >= 0 {
		pct, has := results.Benchmarks["ClusterRescue"]["rescue_failed_pct"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL ClusterRescue.rescue_failed_pct: missing from results")
			failures++
		case pct > opts.maxRescueFailed:
			fmt.Fprintf(w, "FAIL ClusterRescue.rescue_failed_pct: %.2f%% > %.2f%% (journaled futures failed despite reachable switches)\n",
				pct, opts.maxRescueFailed)
			failures++
		default:
			fmt.Fprintf(w, "ok   ClusterRescue.rescue_failed_pct: %.2f%% (≤ %.2f%% required)\n",
				pct, opts.maxRescueFailed)
		}
	}

	if opts.maxOverloadShed > 0 {
		pct, has := results.Benchmarks["Overload"]["shed_pct"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL Overload.shed_pct: missing from results")
			failures++
		case pct > opts.maxOverloadShed:
			fmt.Fprintf(w, "FAIL Overload.shed_pct: %.2f%% > %.2f%% (overload layer sheds too much under congestion)\n",
				pct, opts.maxOverloadShed)
			failures++
		default:
			fmt.Fprintf(w, "ok   Overload.shed_pct: %.2f%% (≤ %.2f%% required)\n", pct, opts.maxOverloadShed)
		}
	}

	if opts.minAggRatio > 0 {
		// The aggregation gate is compound: the compressible workload must
		// actually compress, and it must do so soundly — the equivalence
		// verifier and the activation-log audit both report zero failures.
		ratio, has := results.Benchmarks["Aggregation"]["compression_ratio"]
		switch {
		case !has:
			fmt.Fprintln(w, "FAIL Aggregation.compression_ratio: missing from results")
			failures++
		case ratio < opts.minAggRatio:
			fmt.Fprintf(w, "FAIL Aggregation.compression_ratio: %.2fx < required %.2fx (incremental FIB aggregation regressed)\n",
				ratio, opts.minAggRatio)
			failures++
		default:
			fmt.Fprintf(w, "ok   Aggregation.compression_ratio: %.2fx (≥ %.2fx required)\n", ratio, opts.minAggRatio)
		}
		for _, m := range []string{"hsa_counterexamples", "false_install_acks", "false_remove_acks"} {
			got, has := results.Benchmarks["Aggregation"][m]
			switch {
			case !has:
				fmt.Fprintf(w, "FAIL Aggregation.%s: missing from results\n", m)
				failures++
			case got != 0:
				fmt.Fprintf(w, "FAIL Aggregation.%s: %.0f (aggregation soundness demands exactly zero)\n", m, got)
				failures++
			default:
				fmt.Fprintf(w, "ok   Aggregation.%s: 0\n", m)
			}
		}
	}

	if opts.minClusterSpeedup > 0 {
		agg, okAgg := results.Benchmarks["Cluster"]["aggregate_confirmed_per_sec"]
		single, okSingle := results.Benchmarks["AckPath"]["confirmed_per_sec"]
		cpus := results.Benchmarks["Cluster"]["cpus"]
		switch {
		case !okAgg || !okSingle:
			fmt.Fprintln(w, "FAIL Cluster aggregate speedup: Cluster.aggregate_confirmed_per_sec or AckPath.confirmed_per_sec missing from results")
			failures++
		case single <= 0:
			fmt.Fprintln(w, "FAIL Cluster aggregate speedup: AckPath.confirmed_per_sec is zero")
			failures++
		case cpus < opts.minClusterCPUs:
			// A 4-member cluster cannot outrun one proxy without cores to
			// run on; report the ratio but do not gate on a starved box.
			fmt.Fprintf(w, "note Cluster aggregate speedup: %.2fx on %.0f CPUs (gate needs ≥ %.0f CPUs; not enforced)\n",
				agg/single, cpus, opts.minClusterCPUs)
		case agg/single < opts.minClusterSpeedup:
			fmt.Fprintf(w, "FAIL Cluster aggregate speedup: %.2fx < required %.2fx (sharded scale-out regressed)\n",
				agg/single, opts.minClusterSpeedup)
			failures++
		default:
			fmt.Fprintf(w, "ok   Cluster aggregate speedup: %.2fx (≥ %.2fx required)\n",
				agg/single, opts.minClusterSpeedup)
		}
	}

	return failures
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline file")
	resultsPath := flag.String("results", "BENCH_results.json", "fresh benchmark results file")
	opts := gateOpts{}
	flag.Float64Var(&opts.tolerance, "tolerance", 0.20, "allowed relative regression per metric")
	flag.Float64Var(&opts.minWireSpeedup, "min-wire-speedup", 1.3,
		"absolute floor for the WireThroughput coalesced/unbuffered speedup (0 disables)")
	flag.Float64Var(&opts.maxAckAllocs, "max-ack-allocs", 0,
		"absolute ceiling for AckPath.allocs_per_confirmed_update (negative disables)")
	flag.Float64Var(&opts.maxFatTreeP99, "max-fattree-p99-ms", 100,
		"absolute ceiling for FatTreeChurn.p99_ack_ms in milliseconds (0 disables)")
	flag.Float64Var(&opts.maxFaultWrapRatio, "max-faultwrap-p99-ratio", 1.05,
		"absolute ceiling for FatTreeChurnFaultWrapped.p99_ack_ms / FatTreeChurn.p99_ack_ms (0 disables)")
	flag.Float64Var(&opts.maxVerifyRatio, "max-planner-verify-ratio", 0.20,
		"absolute ceiling for PlannerFatTree.verify_ratio, HSA verify wall over plan wall (0 disables)")
	flag.Float64Var(&opts.minClusterSpeedup, "min-cluster-speedup", 2.0,
		"absolute floor for Cluster.aggregate_confirmed_per_sec / AckPath.confirmed_per_sec (0 disables)")
	flag.Float64Var(&opts.minClusterCPUs, "min-cluster-cpus", 8,
		"CPUs the cluster speedup gate needs before it enforces (below: informational)")
	flag.Float64Var(&opts.maxHandoffMS, "max-handoff-recovery-ms", 250,
		"absolute ceiling for Cluster.handoff_recovery_p99_ms in milliseconds (0 disables)")
	flag.Float64Var(&opts.maxOverloadShed, "max-overload-shed-pct", 15,
		"absolute ceiling for Overload.shed_pct, updates refused with ErrOverloaded under the congested-channel workload (0 disables)")
	flag.Float64Var(&opts.maxRescueFailed, "max-rescue-failed-pct", 0,
		"absolute ceiling for ClusterRescue.rescue_failed_pct — journaled in-flight futures failed despite a reachable switch (negative disables; the default demands exactly zero)")
	flag.Float64Var(&opts.minAggRatio, "min-aggregation-ratio", 1.5,
		"absolute floor for Aggregation.compression_ratio; also demands zero HSA counterexamples and zero false acks (0 disables)")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fatal("loading baseline: %v", err)
	}
	results, err := load(*resultsPath)
	if err != nil {
		fatal("loading results: %v", err)
	}
	if failures := check(baseline, results, opts, os.Stdout); failures > 0 {
		fatal("%d benchmark regression(s); refresh BENCH_baseline.json only for intentional changes (see README)", failures)
	}
	fmt.Println("benchcheck: all gated metrics within tolerance")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
