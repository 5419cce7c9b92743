// Quickstart: run one workload under Linux THP and under Gemini on a
// fragmented virtualized host, and compare the metrics the paper is
// about — well-aligned huge page rate, TLB misses, and throughput.
package main

import (
	"fmt"

	"repro"
)

func main() {
	spec, err := repro.WorkloadByName("masstree")
	if err != nil {
		panic(err)
	}

	fmt.Printf("Workload %s: %d MiB in-memory key/value store, fragmented memory\n\n",
		spec.Name, spec.FootprintMB)

	var thp, gem repro.Result
	for _, sys := range []repro.System{repro.THP, repro.Gemini} {
		cfg := repro.SingleVM(sys, spec)
		cfg.Fragmented, cfg.Seed = true, 1
		r := repro.NewEngine(cfg).Run()[0]
		fmt.Printf("%-12s throughput=%6.1f req/Mcycle  TLB misses=%6.1f/kaccess  well-aligned=%3.0f%%\n",
			r.System, r.Throughput, r.TLBMissesPerKAccess, r.AlignedRate*100)
		if sys == repro.THP {
			thp = r
		} else {
			gem = r
		}
	}

	fmt.Printf("\nGemini vs THP: %+.0f%% throughput, %.1fx fewer TLB misses\n",
		(gem.Throughput/thp.Throughput-1)*100,
		thp.TLBMissesPerKAccess/gem.TLBMissesPerKAccess)
	fmt.Println("\nThe difference is cross-layer alignment: both systems form a")
	fmt.Println("similar number of huge pages, but only Gemini makes sure a huge")
	fmt.Println("guest page is backed by a huge host page — the only combination")
	fmt.Println("the TLB can cache with a single 2 MiB entry (paper §2.2).")
}
