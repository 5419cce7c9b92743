// Key/value store scenario: the paper's intro motivates Gemini with
// big-memory cloud services; this example runs the three K/V stores
// (Masstree, Redis, Memcached) on a fragmented virtualized host under
// every system and reports throughput plus the alignment diagnosis.
//
// Redis's gradual allocation with churn is the pattern the paper
// calls out as quickly fragmenting memory (§6.2); compare its columns
// against the statically-allocated Memcached.
package main

import (
	"fmt"

	"repro"
)

func main() {
	stores := []string{"masstree", "redis", "memcached"}

	for _, name := range stores {
		spec, err := repro.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("=== %s (%d MiB, %s) ===\n", spec.Name, spec.FootprintMB,
			map[bool]string{true: "gradual allocation with churn", false: "static allocation"}[spec.Style == 1])
		fmt.Printf("%-14s %10s %12s %12s %10s\n",
			"system", "req/Mcyc", "mean(cyc)", "p99(cyc)", "aligned")
		for _, sys := range repro.Systems() {
			cfg := repro.SingleVM(sys, spec)
			cfg.Fragmented, cfg.Seed = true, 7
			r := repro.NewEngine(cfg).Run()[0]
			fmt.Printf("%-14s %10.1f %12.0f %12.0f %9.0f%%\n",
				r.System, r.Throughput, r.MeanLatency, r.P99Latency, r.AlignedRate*100)
		}
		fmt.Println()
	}
}
