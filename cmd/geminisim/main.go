// Command geminisim runs one simulated experiment — a workload in a VM
// under a chosen page-management system — and prints its metrics.
//
// Usage:
//
//	geminisim [-system GEMINI] [-workload masstree] [-fragmented]
//	          [-reused] [-requests 4000] [-seed 1] [-all-systems]
//	          [-parallel N] [-vms N] [-trace FILE] [-series FILE]
//	          [-sample-every N] [-stream] [-progress]
//
// With -vms N > 1, N copies of the workload run as separate VMs
// consolidated on one host through the unified engine, and one row is
// printed per VM.
//
// With -trace FILE the structured event trace (promotions, demotions,
// splits, bookings, compaction passes, migrations, phase boundaries) is
// written as JSONL; with -series FILE the per-tick sample series (FMFI
// per order, huge coverage, TLB misses, booking and bucket state) is
// written as CSV, one row per VM plus one host row (vm=-1) per sampled
// tick. -sample-every sets the sampling stride in ticks.
//
// With -all-systems the systems run concurrently, up to -parallel at a
// time. Tracing composes with that: each system records into a private
// shard of the recorder and the shards are merged in system order
// before the files are written, so the output is byte-identical at any
// -parallel value.
//
// -stream writes the -trace/-series files incrementally during the run
// (a crash leaves a valid prefix; within recorder bounds the bytes
// match the batch files). -progress prints live systems-done/total
// lines with an ETA to stderr only, leaving stdout byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro"
	"repro/internal/telemetry"
)

// systemNames renders the registered figure systems for the -system
// flag help, so the usage text tracks the registry.
func systemNames() string {
	names := make([]string, 0, len(repro.Systems()))
	for _, s := range repro.Systems() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

func main() {
	system := flag.String("system", "GEMINI", "system under test ("+systemNames()+")")
	wl := flag.String("workload", "masstree", "workload name from Table 2 (or 'micro')")
	fragmented := flag.Bool("fragmented", false, "pre-fragment guest and host memory")
	reused := flag.Bool("reused", false, "run in a reused VM (SVM predecessor first)")
	requests := flag.Int("requests", 4000, "measured requests")
	seed := flag.Int64("seed", 1, "random seed")
	allSystems := flag.Bool("all-systems", false, "run every system and compare")
	par := flag.Int("parallel", 1, "run up to N systems concurrently with -all-systems (composes with -trace/-series)")
	vms := flag.Int("vms", 1, "number of VMs running the workload, consolidated on one host")
	traceOut := flag.String("trace", "", "write the structured event trace as JSONL to FILE")
	seriesOut := flag.String("series", "", "write the per-tick sample series as CSV to FILE")
	sampleEvery := flag.Int("sample-every", 0, "sample stride in ticks for -series (0 = recorder default)")
	stream := flag.Bool("stream", false, "stream -trace/-series files incrementally during the run instead of writing at the end")
	progress := flag.Bool("progress", false, "print live systems-done/total progress with ETA to stderr")
	flag.Parse()
	if *vms < 1 {
		fmt.Fprintf(os.Stderr, "-vms must be at least 1, got %d\n", *vms)
		os.Exit(1)
	}

	spec, err := repro.WorkloadByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	systems := []repro.System{}
	if *allSystems {
		systems = repro.Systems()
	} else {
		s, err := repro.SystemByName(*system)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		systems = append(systems, s)
	}

	var rec *repro.TraceRecorder
	if *traceOut != "" || *seriesOut != "" {
		rec = repro.NewTraceRecorder(repro.TraceConfig{SampleEvery: *sampleEvery})
	}
	var streamEvents, streamSeries *os.File
	if *stream {
		if rec == nil {
			fmt.Fprintln(os.Stderr, "-stream requires -trace and/or -series")
			os.Exit(1)
		}
		var ev, sm io.Writer
		if *traceOut != "" {
			streamEvents = createFile(*traceOut)
			ev = streamEvents
		}
		if *seriesOut != "" {
			streamSeries = createFile(*seriesOut)
			sm = streamSeries
		}
		if err := rec.StreamTo(ev, sm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(os.Stderr, "geminisim")
		prog.AddTotal(len(systems))
	}

	fmt.Printf("workload=%s footprint=%dMB fragmented=%v reused=%v requests=%d seed=%d vms=%d\n\n",
		spec.Name, spec.FootprintMB, *fragmented, *reused, *requests, *seed, *vms)
	fmt.Printf("%-22s %10s %10s %10s %9s %8s %7s %7s\n",
		"system", "thpt/Mcyc", "mean(cyc)", "p99(cyc)", "tlbm/kacc", "aligned", "guestH", "hostH")
	for _, rows := range runAll(systems, spec, *vms, *fragmented, *reused, *requests, *seed, *par, rec, prog) {
		for i, r := range rows {
			label := r.System
			if *vms > 1 {
				label = fmt.Sprintf("%s vm%d", r.System, i)
			}
			fmt.Printf("%-22s %10.2f %10.0f %10.0f %9.1f %8.2f %7d %7d\n",
				label, r.Throughput, r.MeanLatency, r.P99Latency,
				r.TLBMissesPerKAccess, r.AlignedRate, r.GuestHuge, r.HostHuge)
		}
	}

	if rec != nil {
		if *stream {
			finishStream(rec, *traceOut, *seriesOut, streamEvents, streamSeries)
		} else {
			writeTrace(rec, *traceOut, *seriesOut)
		}
	}
}

// runAll runs every system, up to par at a time, and returns their
// result rows in system order. With a recorder attached, a single
// system records straight into it; several systems each record into a
// private shard keyed by their index, merged in system order after the
// last one finishes, so the trace is identical at any parallelism.
func runAll(systems []repro.System, spec repro.WorkloadSpec, vms int, fragmented, reused bool, requests int, seed int64, par int, rec *repro.TraceRecorder, prog *telemetry.Progress) [][]repro.Result {
	if par < 1 {
		par = 1
	}
	if par > len(systems) {
		par = len(systems)
	}
	results := make([][]repro.Result, len(systems))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, sys := range systems {
		sysRec := rec
		if rec != nil && len(systems) > 1 {
			sysRec = rec.Shard(i, sys.String())
		}
		wg.Add(1)
		go func(i int, sys repro.System, sysRec *repro.TraceRecorder) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = runOne(sys, spec, vms, fragmented, reused, requests, seed, sysRec)
			if prog != nil {
				gauges := ""
				if len(results[i]) > 0 {
					r := results[i][0]
					gauges = fmt.Sprintf(" fmfi=%.2f cov=%.2f", r.GuestFMFI, r.HugeCoverage)
				}
				prog.CellDone(sys.String(), gauges)
			}
		}(i, sys, sysRec)
	}
	wg.Wait()
	if rec != nil && len(systems) > 1 {
		rec.MergeShards()
	}
	return results
}

// runOne runs the configured experiment: a single VM in the paper's
// single-VM setting, or n consolidated copies of the workload on engine
// defaults.
func runOne(sys repro.System, spec repro.WorkloadSpec, n int, fragmented, reused bool, requests int, seed int64, rec *repro.TraceRecorder) []repro.Result {
	cfg := repro.SingleVM(sys, spec)
	if n > 1 {
		cfg = repro.EngineConfig{VMs: make([]repro.VMConfig, n)}
		for i := range cfg.VMs {
			cfg.VMs[i] = repro.VMConfig{System: sys, Workload: spec}
		}
	}
	for i := range cfg.VMs {
		cfg.VMs[i].ReusedVM = reused
	}
	if requests != 0 { // zero keeps the setting's own default
		cfg.Requests = requests
	}
	cfg.Fragmented, cfg.Seed, cfg.Trace = fragmented, seed, rec
	return repro.NewEngine(cfg).Run()
}

// writeTrace flushes the recorder's event log and sample series to the
// requested files, noting any ring overflow on stderr.
func writeTrace(rec *repro.TraceRecorder, tracePath, seriesPath string) {
	write := func(path string, fn func(*os.File) error) {
		f := createFile(path)
		err := fn(f)
		if err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if tracePath != "" {
		write(tracePath, func(f *os.File) error { return repro.WriteTraceEvents(f, rec.Events()) })
		fmt.Printf("\nwrote %d events to %s\n", len(rec.Events()), tracePath)
	}
	if seriesPath != "" {
		write(seriesPath, func(f *os.File) error { return repro.WriteTraceSeries(f, rec.Samples()) })
		fmt.Printf("wrote %d samples to %s (stride %d ticks)\n",
			len(rec.Samples()), seriesPath, rec.Stride())
	}
	telemetry.WarnDropped(os.Stderr, rec.Dropped())
}

// finishStream closes out a streamed trace, printing the same stdout
// summary lines writeTrace prints so -stream never changes stdout.
func finishStream(rec *repro.TraceRecorder, tracePath, seriesPath string, eventsF, seriesF *os.File) {
	if err := rec.FlushStream(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range []*os.File{eventsF, seriesF} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if tracePath != "" {
		fmt.Printf("\nwrote %d events to %s\n", len(rec.Events()), tracePath)
	}
	if seriesPath != "" {
		fmt.Printf("wrote %d samples to %s (stride %d ticks)\n",
			len(rec.Samples()), seriesPath, rec.Stride())
	}
	telemetry.WarnDropped(os.Stderr, rec.Dropped())
}

func createFile(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f
}
