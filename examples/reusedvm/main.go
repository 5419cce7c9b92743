// Reused-VM scenario (§6.3): cloud VMs are rarely fresh — a previous
// workload's memory was handed back to the guest OS but its host-side
// huge page backing persists. Gemini's huge bucket parks the freed
// well-aligned regions and hands them to the next workload, so the
// alignment built by the SVM trainer survives into the next service.
//
// This example runs Xapian in a VM that previously ran SVM, and
// reports the bucket reuse rate alongside the usual metrics.
package main

import (
	"fmt"

	"repro"
)

func main() {
	spec, err := repro.WorkloadByName("xapian")
	if err != nil {
		panic(err)
	}
	fmt.Printf("VM previously ran the SVM trainer to completion; now serving %s.\n\n", spec.Name)
	fmt.Printf("%-14s %10s %12s %10s %12s\n",
		"system", "req/Mcyc", "p99(cyc)", "aligned", "bucket-reuse")
	for _, sys := range []repro.System{
		repro.HostBVMB, repro.THP, repro.Ingens, repro.Gemini, repro.GeminiNoBucket,
	} {
		cfg := repro.SingleVM(sys, spec)
		cfg.VMs[0].ReusedVM = true
		cfg.Fragmented, cfg.Seed = true, 11
		r := repro.NewEngine(cfg).Run()[0]
		reuse := "-"
		if r.BucketReuseRate > 0 {
			reuse = fmt.Sprintf("%.0f%%", r.BucketReuseRate*100)
		}
		fmt.Printf("%-14s %10.1f %12.0f %9.0f%% %12s\n",
			r.System, r.Throughput, r.P99Latency, r.AlignedRate*100, reuse)
	}
	fmt.Println("\nGEMINI-EMA/HB is Gemini without the bucket: the gap between the")
	fmt.Println("two GEMINI rows is the bucket's contribution (paper Figure 16).")
}
