package repro

import (
	"sync"
	"testing"
)

// The benchmarks below regenerate each figure and table of the paper's
// evaluation at reduced scale (Options.Quick): same systems, same
// settings, half-size footprints and fewer requests, so a full
// `go test -bench=.` pass stays in the minutes range. Run
// `cmd/paperbench` for the full-scale tables.
//
// Benchmarks report ns/op for one full experiment regeneration; the
// interesting output is the text tables from cmd/paperbench and the
// derived metrics asserted in repro_test.go.

func quickOpts() Options {
	return Options{Seed: 1, Quick: true, Parallel: 4}
}

// BenchmarkFigure2 regenerates the micro-benchmark sweep (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure2(quickOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure3Table1 regenerates the motivation experiment
// (Figure 3 throughput/latency and Table 1 alignment rates).
func BenchmarkFigure3Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Motivation(quickOpts())
		if len(rows) != 4*8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// The Figure 8-11/Table 3 benchmarks are views of one clean-slate
// sweep and the Figure 12-15/Table 4 benchmarks views of one reused-VM
// sweep, exactly as in the paper; the sweeps run once per `go test`
// invocation (the first benchmark of each family pays the cost).
var (
	cleanOnce  sync.Once
	cleanRows  []CleanSlateRow
	reusedOnce sync.Once
	reusedRows []Result
)

func cleanSlateRows(b *testing.B) []CleanSlateRow {
	cleanOnce.Do(func() { cleanRows = CleanSlate(quickOpts()) })
	if len(cleanRows) == 0 {
		b.Fatal("no rows")
	}
	return cleanRows
}

func reusedVMRows(b *testing.B) []Result {
	reusedOnce.Do(func() { reusedRows = ReusedVM(quickOpts()) })
	if len(reusedRows) == 0 {
		b.Fatal("no rows")
	}
	return reusedRows
}

func benchCleanSlate(b *testing.B, filter func(CleanSlateRow) float64) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, r := range cleanSlateRows(b) {
			sum += filter(r)
		}
		if sum <= 0 {
			b.Fatal("degenerate metrics")
		}
	}
}

// BenchmarkFigure8Throughput regenerates clean-slate throughput.
func BenchmarkFigure8Throughput(b *testing.B) {
	benchCleanSlate(b, func(r CleanSlateRow) float64 { return r.Throughput })
}

// BenchmarkFigure9MeanLatency regenerates clean-slate mean latency.
func BenchmarkFigure9MeanLatency(b *testing.B) {
	benchCleanSlate(b, func(r CleanSlateRow) float64 { return r.MeanLatency })
}

// BenchmarkFigure10TailLatency regenerates clean-slate p99 latency.
func BenchmarkFigure10TailLatency(b *testing.B) {
	benchCleanSlate(b, func(r CleanSlateRow) float64 { return r.P99Latency })
}

// BenchmarkFigure11TLBMisses regenerates clean-slate TLB misses.
func BenchmarkFigure11TLBMisses(b *testing.B) {
	benchCleanSlate(b, func(r CleanSlateRow) float64 { return r.TLBMissesPerKAccess })
}

// BenchmarkTable3AlignedRates regenerates the clean-slate alignment
// table.
func BenchmarkTable3AlignedRates(b *testing.B) {
	benchCleanSlate(b, func(r CleanSlateRow) float64 {
		if r.Fragmented {
			return r.AlignedRate + 0.001 // rates can legitimately be 0 for baselines
		}
		return 0.001
	})
}

// benchReused shares one reused-VM sweep across Figure 12-15/Table 4.
func benchReused(b *testing.B, metric func(Result) float64) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, r := range reusedVMRows(b) {
			sum += metric(r)
		}
		if sum <= 0 {
			b.Fatal("degenerate metrics")
		}
	}
}

// BenchmarkFigure12ReusedThroughput regenerates reused-VM throughput.
func BenchmarkFigure12ReusedThroughput(b *testing.B) {
	benchReused(b, func(r Result) float64 { return r.Throughput })
}

// BenchmarkFigure13ReusedMeanLatency regenerates reused-VM mean latency.
func BenchmarkFigure13ReusedMeanLatency(b *testing.B) {
	benchReused(b, func(r Result) float64 { return r.MeanLatency })
}

// BenchmarkFigure14ReusedTailLatency regenerates reused-VM p99 latency.
func BenchmarkFigure14ReusedTailLatency(b *testing.B) {
	benchReused(b, func(r Result) float64 { return r.P99Latency })
}

// BenchmarkFigure15ReusedTLBMisses regenerates reused-VM TLB misses.
func BenchmarkFigure15ReusedTLBMisses(b *testing.B) {
	benchReused(b, func(r Result) float64 { return r.TLBMissesPerKAccess })
}

// BenchmarkTable4ReusedAlignedRates regenerates the reused-VM
// alignment table.
func BenchmarkTable4ReusedAlignedRates(b *testing.B) {
	benchReused(b, func(r Result) float64 { return r.AlignedRate + 0.001 })
}

// BenchmarkFigure16Breakdown regenerates the EMA/HB vs huge-bucket
// breakdown.
func BenchmarkFigure16Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Breakdown(quickOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure17Colocated regenerates collocated-VM throughput.
func BenchmarkFigure17Colocated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := Colocated(quickOpts())
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkFigure18ColocatedLatency regenerates collocated-VM latency
// (same runs as Figure 17, reported as latency).
func BenchmarkFigure18ColocatedLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := Colocated(quickOpts())
		for _, rows := range pairs {
			for _, cr := range rows {
				_ = cr.A.MeanLatency
			}
		}
	}
}

// --- Ablation benchmarks beyond the paper (DESIGN.md §3) ---

// benchAblation runs Gemini against one ablated variant on a fixed
// workload and reports the throughput delta via b.ReportMetric.
func benchAblation(b *testing.B, variant System) {
	spec, err := WorkloadByName("memcached")
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintMB /= 2
	run := func(sys System) Result {
		cfg := SingleVM(sys, spec)
		cfg.VMs[0].ReusedVM = true
		cfg.Fragmented, cfg.Requests, cfg.Seed = true, 1500, 1
		return runOne(cfg)
	}
	for i := 0; i < b.N; i++ {
		full, abl := run(Gemini), run(variant)
		if abl.Throughput > 0 {
			b.ReportMetric(full.Throughput/abl.Throughput, "full/ablated")
		}
	}
}

// BenchmarkAblationNoBucket measures the huge bucket's contribution.
func BenchmarkAblationNoBucket(b *testing.B) { benchAblation(b, GeminiNoBucket) }

// BenchmarkAblationBucketOnly measures EMA/HB's contribution.
func BenchmarkAblationBucketOnly(b *testing.B) { benchAblation(b, GeminiBucketOnly) }

// BenchmarkAblationStaticTimeout measures Algorithm 1's contribution.
func BenchmarkAblationStaticTimeout(b *testing.B) { benchAblation(b, GeminiStaticTimeout) }

// BenchmarkAblationNoPrealloc measures huge preallocation's
// contribution.
func BenchmarkAblationNoPrealloc(b *testing.B) { benchAblation(b, GeminiNoPrealloc) }
