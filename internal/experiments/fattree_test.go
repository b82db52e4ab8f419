package experiments

import (
	"testing"
	"time"

	"rum/internal/core"
)

// TestFatTreeChurnSmall runs the scale workload end to end on a k=4
// fat-tree (20 switches) with the per-layer strategy mix: every update
// must resolve positively within the simulated deadline.
func TestFatTreeChurnSmall(t *testing.T) {
	res, err := FatTreeChurn(FatTreeChurnOpts{
		K:                4,
		UpdatesPerSwitch: 8,
		Mixed:            true,
		Deadline:         30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 20 {
		t.Fatalf("k=4 fat-tree ran %d switches, want 20", res.Switches)
	}
	if res.Updates != 160 || res.Completed != 160 {
		t.Fatalf("completed %d/%d updates (failed=%d unacked=%d)",
			res.Completed, res.Updates, res.Failed, res.Unacked)
	}
	if res.P99 <= 0 || res.P50 > res.P99 {
		t.Fatalf("implausible latency percentiles p50=%v p99=%v", res.P50, res.P99)
	}
	if res.Probes == 0 {
		t.Fatal("mixed strategies ran but no probes were injected")
	}
	// The per-cohort instrumentation must cover every completed update
	// across the three mixed techniques.
	total := 0
	for tech, st := range res.PerTechnique {
		if st.Updates == 0 || st.P50 > st.P99 {
			t.Fatalf("cohort %s implausible: %+v", tech, st)
		}
		total += st.Updates
	}
	if len(res.PerTechnique) != 3 || total != res.Completed {
		t.Fatalf("cohorts %v cover %d updates, want 3 cohorts covering %d",
			res.PerTechnique, total, res.Completed)
	}
}

// TestFatTreeTimeoutRateBoundsTail is the tail-latency fix's regression
// test: with the work-proportional timeout bound (the default) the
// timeout cohort's p99 must scale with the burst backlog, not sit at the
// fixed full-table worst case — and disabling the bound must reproduce
// the historical flat-300ms cohort, proving the instrumentation actually
// attributes the tail.
func TestFatTreeTimeoutRateBoundsTail(t *testing.T) {
	opts := FatTreeChurnOpts{K: 4, UpdatesPerSwitch: 8, Mixed: true, Deadline: 30 * time.Second}
	scaled, err := FatTreeChurn(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TimeoutRate = -1 // fixed-delay baseline
	fixed, err := FatTreeChurn(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := scaled.PerTechnique[core.TechTimeout]
	if !ok {
		t.Fatal("no timeout cohort in the mixed run")
	}
	fixedSt := fixed.PerTechnique[core.TechTimeout]
	if fixedSt.P99 < 300*time.Millisecond {
		t.Fatalf("fixed-delay timeout cohort p99 = %v, expected the flat 300ms worst case", fixedSt.P99)
	}
	if st.P99*3 > fixedSt.P99 {
		t.Fatalf("work-proportional bound p99 = %v, want ≥3x under the fixed-delay %v", st.P99, fixedSt.P99)
	}
	if scaled.Completed != scaled.Updates {
		t.Fatalf("scaled run completed %d/%d", scaled.Completed, scaled.Updates)
	}
}

// TestFatTreeChurnSingleTechnique covers the homogeneous configuration
// (every switch on the timeout technique).
func TestFatTreeChurnSingleTechnique(t *testing.T) {
	res, err := FatTreeChurn(FatTreeChurnOpts{
		K:                4,
		UpdatesPerSwitch: 4,
		Technique:        core.TechTimeout,
		Deadline:         30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Updates {
		t.Fatalf("completed %d/%d updates", res.Completed, res.Updates)
	}
}
