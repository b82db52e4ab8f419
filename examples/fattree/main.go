// Fattree: the datacenter-scale churn workload. A k-ary fat-tree fabric
// of emulated switches (80 at k=8) is proxied by one RUM instance while
// every switch receives a storm of concurrent rule updates, with the
// acknowledgment strategy mixed per layer: sequential probing on the
// edge, general probing on the aggregation layer, the timeout technique
// in the core. The run reports the hot-path scale metrics — updates/sec
// through the proxy and the p50/p99 ack latency.
//
// Run: go run ./examples/fattree [-k 8] [-updates 25]
package main

import (
	"flag"
	"fmt"
	"os"

	"rum/internal/experiments"
)

func main() {
	k := flag.Int("k", 8, "fat-tree arity (even)")
	updates := flag.Int("updates", 25, "rule updates per switch")
	flag.Parse()

	res, err := experiments.FatTreeChurn(experiments.FatTreeChurnOpts{
		K:                *k,
		UpdatesPerSwitch: *updates,
		Mixed:            true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fattree:", err)
		os.Exit(1)
	}
	fmt.Printf("k=%d fat-tree: %d switches, %d updates (mixed strategies)\n",
		res.K, res.Switches, res.Updates)
	fmt.Printf("  completed %d  failed %d  unacked %d\n", res.Completed, res.Failed, res.Unacked)
	fmt.Printf("  wall %v  (%.0f updates/sec through the proxy)\n", res.WallElapsed, res.UpdatesPerSec)
	fmt.Printf("  ack latency p50 %v  p99 %v (simulated)\n", res.P50, res.P99)
	fmt.Printf("  acks %d  probes %d  fallbacks %d  switch barriers %d\n",
		res.Acks, res.Probes, res.Fallbacks, res.SwitchBarriers)

}
