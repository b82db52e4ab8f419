package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	within     = "within"     // b is no worse than a by more than the bound
	regressed  = "regressed"  // b is worse than a by more than the bound
	unresolved = "unresolved" // a run's own spread is wider than the bound
)

// setupFloor is the set-up time, in seconds, below which -compare does
// not hold setup_s to its bound.
const setupFloor = 0.050

// verdict compares medians a (before) and b (after) of one metric whose
// repetitions spread by spreadA and spreadB.
func verdict(d metricDef, a, b, spreadA, spreadB float64) string {
	if spreadA > d.Bound || spreadB > d.Bound {
		return unresolved
	}
	worse := b - a
	if d.Better == "higher" {
		worse = a - b
	}
	if a != 0 && worse/a > d.Bound {
		return regressed
	}
	if a == 0 && worse > 0 {
		return regressed
	}
	return within
}

// loadBounds reads the end-to-end metric declarations of BENCHMARK.json.
func loadBounds(path string) ([]metricDef, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: declares no end_to_end metrics", path)
	}
	return decl.EndToEnd, nil
}

func loadResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// exact are the per-layer metrics measured in simulated time or as
// counts over a fixed set of updates: between two runs of one commit any
// difference at all is a behaviour change, so they are compared for
// equality. The counters repeat exactly only on the simulated workloads.
var (
	exact = []string{"sim.ack_p50_ms", "sim.ack_p99_ms", "sim.ack_lag_p50_ms", "sim.ack_lag_p99_ms",
		"false_acks", "failed_frac"}
	exactOnSim = []string{"sim.events_per_update", "core.probes_per_update", "core.fallbacks",
		"switch.pktouts_per_update", "switch.pktins_per_update", "switch.syncs"}
)

// runCompare prints, per workload × end-to-end metric, whether result b
// is within the bound of result a, and returns 0 only if every pairing
// is.
func runCompare(pathA, pathB, boundsPath string) int {
	defs, err := loadBounds(boundsPath)
	if err == nil {
		var a, b *resultFile
		if a, err = loadResult(pathA); err == nil {
			if b, err = loadResult(pathB); err == nil {
				return compareResults(a, b, defs)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareResults(a, b *resultFile, defs []metricDef) int {
	if a.Env.NProc != b.Env.NProc || a.Env.GoMaxProcs != b.Env.GoMaxProcs {
		fmt.Printf("warning: different machines (nproc %d/%d, GOMAXPROCS %d/%d): the numbers do not compare\n",
			a.Env.NProc, b.Env.NProc, a.Env.GoMaxProcs, b.Env.GoMaxProcs)
	}
	status := 0
	for _, def := range workloads {
		wa, okA := a.Workloads[def.name]
		wb, okB := b.Workloads[def.name]
		if !okA || !okB {
			fmt.Printf("%-14s missing from a result file\n", def.name)
			status = 1
			continue
		}
		for _, d := range defs {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			sa, sb := 0.0, 0.0
			if va.Spread != nil {
				sa = *va.Spread
			}
			if vb.Spread != nil {
				sb = *vb.Spread
			}
			v := verdict(d, va.Value, vb.Value, sa, sb)
			if d.Name == "setup_s" && va.Value < setupFloor && vb.Value < setupFloor {
				// Milliseconds of dialing move by a quarter from one
				// process to the next; set-up matters once it is felt.
				v = within
			}
			if v != within {
				status = 1
			}
			fmt.Printf("%-14s %-20s %-10s a=%-12.5g b=%-12.5g %-5s change %+6.1f%% spread a=%.3f b=%.3f bound %.2f\n",
				def.name, d.Name, v, va.Value, vb.Value, d.Unit, 100*(vb.Value-va.Value)/va.Value, sa, sb, d.Bound)
		}
		names := append([]string{}, exact...)
		if def.simulated {
			names = append(names, exactOnSim...)
		}
		for _, name := range names {
			if va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value; va != vb {
				fmt.Printf("%-14s %-20s %-10s a=%-12.5g b=%-12.5g (simulated time: must be identical)\n",
					def.name, name, "changed", va, vb)
				status = 1
			}
		}
	}
	return status
}
