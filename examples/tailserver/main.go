// Latency-critical server scenario: TailBench-style services live and
// die by tail latency, and huge-page machinery can both help (fewer
// TLB misses) and hurt (synchronous allocation stalls, migration
// shootdowns, HawkEye's deduplication refaults on Specjbb — the §6.2
// anomaly). This example runs Img-dnn and Specjbb and prints the mean
// and p99 picture per system.
package main

import (
	"fmt"

	"repro"
)

func main() {
	run := func(sys repro.System, spec repro.WorkloadSpec) repro.Result {
		cfg := repro.SingleVM(sys, spec)
		cfg.Fragmented, cfg.Seed = true, 3
		return repro.NewEngine(cfg).Run()[0]
	}
	for _, name := range []string{"img-dnn", "specjbb"} {
		spec, err := repro.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("=== %s (%d MiB, %.0f%% zero pages) ===\n",
			spec.Name, spec.FootprintMB, spec.ZeroFraction*100)

		var base repro.Result
		fmt.Printf("%-14s %12s %12s %12s %10s\n",
			"system", "mean(cyc)", "p99(cyc)", "tlbm/kacc", "CoW-prone")
		for _, sys := range repro.Systems() {
			r := run(sys, spec)
			if sys == repro.HostBVMB {
				base = r
			}
			cow := ""
			if sys == repro.HawkEye && spec.ZeroFraction > 0.2 {
				cow = "dedup refaults"
			}
			fmt.Printf("%-14s %12.0f %12.0f %12.1f %10s\n",
				r.System, r.MeanLatency, r.P99Latency, r.TLBMissesPerKAccess, cow)
		}
		gem := run(repro.Gemini, spec)
		fmt.Printf("\nGemini vs Host-B-VM-B: mean %-+3.0f%%, p99 %-+3.0f%%\n\n",
			(gem.MeanLatency/base.MeanLatency-1)*100,
			(gem.P99Latency/base.P99Latency-1)*100)
	}
}
