// Command gridbench is the repository benchmark: it times whole
// evaluation grids of the simulator (reused-VM and memory-pressure
// cells), checks every simulated Result against a stored reference,
// and with -trace 1 attributes the time to layers through a traced
// re-run of each cell and a CPU-profile fold. See README.md in this
// directory for the workloads, metrics and how they relate.
//
// Usage (from the repository root, normally through run.py):
//
//	gridbench -workload reused -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed cell makes the
// exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Simulation seeds with stored references (ref/<workload>-seed<N>.jsonl).
// A run with benchmark seed i (1-based, wrapping around) uses the i-th
// group of perRun consecutive seeds of its workload's list. Seed 1 is
// the program's default and the one to develop against; the last group
// is held out, for checking that a claimed gain holds on inputs the
// change was not written against.
var inputs = map[string]struct {
	seeds  []int64
	perRun int
}{
	"reused": {seedRange(1, 10), 1},
	// The swap and balloon work of a pressure cell changes by up to a
	// third from one simulation seed to the next, so a run covers three
	// seeds. Seed 4 is left out: repro.Pressure panics on it (the
	// GEMINI cell at 1.0× overcommit runs a guest out of memory), so it
	// has no reference. See README.md, "Known defect".
	"pressure": {append([]int64{1, 2, 3}, seedRange(5, 31)...), 3},
}

func seedRange(lo, hi int64) []int64 {
	var s []int64
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// runSeeds maps a benchmark seed onto the simulation seeds of one run.
func runSeeds(workload string, seed int64) ([]int64, error) {
	in, ok := inputs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have reused, pressure)", workload)
	}
	groups := int64(len(in.seeds) / in.perRun)
	i := ((seed-1)%groups + groups) % groups
	return in.seeds[i*int64(in.perRun) : (i+1)*int64(in.perRun)], nil
}

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// minPasses is the fewest grid passes a timed run makes, so every
// per-cell figure is a minimum over at least two samples.
const minPasses = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	procStart := time.Now()
	var (
		workloadName = flag.String("workload", "", "reused or pressure")
		seed         = flag.Int64("seed", 1, "input seed, mapped onto a recorded simulation seed")
		seconds      = flag.Int("seconds", 34, "measurement length; sets the number of grid passes")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed passes")
		refDir       = flag.String("refdir", "gridbench/ref", "directory of the reference results")
		workDir      = flag.String("workdir", ".bench_build/gridbench", "directory for profiles and spans")
		record       = flag.Bool("record", false, "run one pass and store it as the reference for simulation seed -seed")
	)
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "gridbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	seeds, err := runSeeds(*workloadName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 2
	}
	if *record {
		seeds = []int64{*seed} // recording names the simulation seed itself
	}
	g, err := gridFor(*workloadName, seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 2
	}
	if *record {
		rs := g.run(repro.Options{})
		if err := writeReferences(*refDir, g, rs); err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "gridbench: wrote %s (%d results)\n", refPath(*refDir, g.name, *seed), len(rs))
		return 0
	}
	ref, err := readReferences(*refDir, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "gridbench: workload %s, simulation seeds %v, %d cells per pass\n",
		g.name, g.seeds, len(g.cells))
	var rep report
	if *traceFlag == 1 {
		rep = tracedRun(g, ref, *workDir, *seed)
	} else {
		rep = timedRun(g, ref, procStart, *seconds, *refDir)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// outcome tallies attempted and failed cells.
type outcome struct {
	attempted, failed int
}

// runPass runs one untraced pass, turning a grid panic into an error.
func runPass(g grid, o repro.Options) (rs []sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid panicked: %v", r)
		}
	}()
	rs = g.run(o)
	if len(rs) != g.results() {
		return nil, fmt.Errorf("grid returned %d results, want %d", len(rs), g.results())
	}
	return rs, nil
}

// check runs one pass's correctness accounting: a panic fails every
// cell of the pass, a reference mismatch fails the differing cells.
func (o *outcome) check(g grid, ref []refRow, rs []sim.Result, err error) {
	o.attempted += len(g.cells)
	if err != nil {
		o.failed += len(g.cells)
		fmt.Fprintln(os.Stderr, "gridbench: FAIL:", err)
		return
	}
	if bad, first := checkResults(g, ref, rs); bad > 0 {
		o.failed += bad
		fmt.Fprintf(os.Stderr, "gridbench: FAIL: %d cells differ from the reference; first: %s\n", bad, first)
	}
}

// warmCell runs the grid's first cell once through sim.Engine and
// checks it; this is the set-up that fills the heap and the walk-cache
// arena pool before timing starts.
func warmCell(g grid, ref []refRow, o *outcome) {
	c := g.cells[0]
	sub := grid{name: g.name, cells: g.cells[:1]}
	var rs []sim.Result
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("warm-up cell %s panicked: %v", c.name, r)
			}
		}()
		rs = sim.NewEngine(c.ec).Run()
		return nil
	}()
	o.check(sub, ref[:len(c.ec.VMs)], rs, err)
}

// timedRun is the untraced measurement: set-up setupReps times, then
// a fixed number of whole grid passes.
//
// Every per-cell figure is the cell's minimum over the passes. On the
// reference host the speed of the machine drifts between two states
// about 2x apart, in phases of a second or so, whatever the program
// does; the per-cell minimum over passes spread across the run is the
// estimator that drift moves least. The pass count is fixed by
// -seconds and the grid's nominal pass time, so a faster commit does
// not get more samples (a minimum over more samples is lower).
func timedRun(g grid, ref []refRow, procStart time.Time, seconds int, refDir string) report {
	var o outcome
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		s := time.Now()
		if i == 0 {
			s = procStart
		}
		// Each set-up rebuilds the grid, reloads the reference and runs
		// the warm-up cell.
		g2, err := gridFor(g.name, g.seeds)
		if err == nil {
			_, err = readReferences(refDir, g2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			o.attempted, o.failed = o.attempted+1, o.failed+1
			break
		}
		warmCell(g2, ref, &o)
		setups = append(setups, time.Since(s).Seconds())
	}

	passes := int(math.Round(float64(seconds) / g.passSeconds))
	if passes < minPasses {
		passes = minPasses
	}
	n := len(g.cells)
	var (
		wall   = newCellMins(n) // ms
		alloc  = newCellMins(n) // bytes
		heap   = newCellMins(n) // bytes
		times  []string
		prog   = telemetry.NewProgress(nil, "gridbench")
		watch  = startHeapWatch(time.Millisecond, prog, n*passes)
		failed = false
	)
	for p := 0; p < passes && !failed; p++ {
		stats := telemetry.NewCollector()
		ps := time.Now()
		rs, err := runPass(g, repro.Options{Stats: stats, Progress: prog})
		times = append(times, formatMS(time.Since(ps)))
		o.check(g, ref, rs, err)
		cs := stats.Cells()
		if failed = err != nil || len(cs) != n; failed {
			break
		}
		for i, c := range cs {
			wall.add(i, float64(c.Wall)/1e6)
			alloc.add(i, float64(c.AllocBytes))
		}
	}
	peaks := watch.stop()
	for i, pk := range peaks {
		heap.add(i%n, float64(pk))
	}
	fmt.Fprintf(os.Stderr, "gridbench: passes %v, %d attempted, %d failed\n", times, o.attempted, o.failed)
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}}
	if failed || len(setups) == 0 {
		rep.Correct = false
		return rep
	}
	rep.Metrics["cells_per_s"] = metric{float64(n) / (sum(wall.min) / 1e3), "1/s"}
	rep.Metrics["cell_ms.p50"] = metric{quantile(wall.min, 0.5), "ms"}
	rep.Metrics["cell_ms.p90"] = metric{quantile(wall.min, 0.9), "ms"}
	rep.Metrics["alloc_mb_per_cell"] = metric{sum(alloc.min) / float64(n) / 1e6, "MB"}
	rep.Metrics["peak_heap_mb"] = metric{quantile(heap.min, 1) / 1e6, "MB"}
	rep.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	return rep
}

// cellMins keeps each cell's minimum over passes.
type cellMins struct {
	min  []float64
	seen []bool
}

func newCellMins(n int) *cellMins {
	return &cellMins{min: make([]float64, n), seen: make([]bool, n)}
}

func (m *cellMins) add(i int, v float64) {
	if !m.seen[i] || v < m.min[i] {
		m.min[i], m.seen[i] = v, true
	}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// quantile is the q-quantile of vs by linear interpolation between
// closest ranks.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// heapWatch samples the heap in use every interval on one goroutine
// and keeps, for each cell the grid runs, the largest sample taken
// while it ran. The running cell is the count of finished cells the
// grid has reported to prog. runtime/metrics reads do not stop the
// world.
type heapWatch struct {
	quit, done chan struct{}
	peaks      []uint64
}

func startHeapWatch(interval time.Duration, prog *telemetry.Progress, cells int) *heapWatch {
	w := &heapWatch{quit: make(chan struct{}), done: make(chan struct{}), peaks: make([]uint64, cells)}
	go func() {
		defer close(w.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			if i := prog.Done(); i < int64(len(w.peaks)) {
				if v := s[0].Value.Uint64(); v > w.peaks[i] {
					w.peaks[i] = v
				}
			}
			select {
			case <-w.quit:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends the watcher, waits for it and returns the per-cell peaks
// in bytes, in the order the cells ran.
func (w *heapWatch) stop() []uint64 {
	close(w.quit)
	<-w.done
	return w.peaks
}

// formatMS renders a duration in milliseconds for log lines.
func formatMS(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/1e6, 'f', 1, 64) + "ms"
}

// runtimeCounters reads the Go runtime's cumulative GC CPU time
// (seconds), GC cycle count and allocated bytes.
func runtimeCounters() (gcCPU float64, cycles, allocBytes uint64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// tracedRun is the per-layer run: one untraced pass for the overhead
// baseline and the equivalence check, then one traced pass under the
// CPU profiler.
func tracedRun(g grid, ref []refRow, workDir string, seed int64) report {
	var o outcome
	warmCell(g, ref, &o)

	us := time.Now()
	untraced, err := runPass(g, repro.Options{})
	untracedTime := time.Since(us)
	o.check(g, ref, untraced, err)

	rep := report{Metrics: map[string]metric{}}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return rep
	}
	profPath := filepath.Join(workDir, fmt.Sprintf("cpu-%s-seed%d.pprof", g.name, seed))
	pf, err := os.Create(profPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return rep
	}
	runtime.GC()
	gc0, cyc0, alloc0 := runtimeCounters()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return rep
	}
	tr := &tracer{t0: time.Now()}
	var traced []sim.Result
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("traced driver panicked: %v", r)
			}
		}()
		for _, c := range g.cells {
			traced = append(traced, tr.runCell(c)...)
		}
		return nil
	}()
	tracedTime := time.Since(tr.t0)
	pprof.StopCPUProfile()
	gc1, cyc1, alloc1 := runtimeCounters()
	if cerr := pf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	o.check(g, ref, traced, err)
	if err == nil && untraced != nil {
		// Equivalence: the traced driver against the program's runner
		// in this process, not only against the stored reference.
		keys := resultKeys(g)
		for i := range traced {
			if d := diffRow(toRow(keys[i], untraced[i]), toRow(keys[i], traced[i])); d != "" {
				o.failed++
				fmt.Fprintln(os.Stderr, "gridbench: FAIL: traced driver differs from the program:", d)
				break
			}
		}
	}
	if err := writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", g.name, seed)), tr.spans); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		o.failed++
	}
	prof, err := foldProfile(profPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		o.failed++
	}
	fmt.Fprintf(os.Stderr, "gridbench: untraced pass %s, traced pass %s\n",
		formatMS(untracedTime), formatMS(tracedTime))
	rep.Correct, rep.Attempted, rep.Failed = o.failed == 0, o.attempted, o.failed
	for k, v := range layerMetrics(&tr.lt) {
		rep.Metrics[k] = v
	}
	for k, v := range prof {
		rep.Metrics[k] = metric{v, "ms"}
	}
	rep.Metrics["runtime.gc_cpu_ms"] = metric{(gc1 - gc0) * 1e3, "ms"}
	rep.Metrics["runtime.gc_cycles"] = metric{float64(cyc1 - cyc0), "count"}
	rep.Metrics["runtime.alloc_mb"] = metric{float64(alloc1-alloc0) / 1e6, "MB"}
	rep.Metrics["trace.overhead"] = metric{1 - untracedTime.Seconds()/tracedTime.Seconds(), "ratio"}
	return rep
}

// layerMetrics turns the traced driver's accumulators into the span
// and count metrics.
func layerMetrics(lt *layerTimes) map[string]metric {
	ms := func(ns int64) metric { return metric{float64(ns) / 1e6, "ms"} }
	count := func(n uint64) metric { return metric{float64(n), "count"} }
	ratio := func(a, b uint64) metric { return metric{safeDiv(float64(a), float64(b)), "ratio"} }
	return map[string]metric{
		"machine.build_ms":          ms(lt.build),
		"sim.fragment_ms":           ms(lt.fragment),
		"frag.release_ms":           ms(lt.release),
		"sim.predecessor_ms":        ms(lt.predecessor),
		"workload.teardown_ms":      ms(lt.teardown),
		"sim.warmup_ms":             ms(lt.warmup),
		"sim.settle_ms":             ms(lt.settle),
		"sim.measure_ms":            ms(lt.measure),
		"sim.results_ms":            ms(lt.final),
		"workload.populate_ms":      ms(lt.populate),
		"workload.step_ms":          ms(lt.step),
		"sim.measure_ns_per_access": {safeDiv(float64(lt.measureStep), float64(lt.measureAccesses)), "ns"},
		"machine.tick_ms":           ms(lt.tick),
		"machine.tick_us":           {safeDiv(float64(lt.tick)/1e3, float64(lt.ticksDense)), "us"},
		"machine.ff_ms":             ms(lt.ff),
		"machine.ticks_dense":       count(lt.ticksDense),
		"machine.ticks_skipped":     count(lt.ticksSkipped),
		"machine.ff_ratio":          ratio(lt.ticksSkipped, lt.ticksDense+lt.ticksSkipped),
		"workload.requests":         count(lt.requests),
		"vm.accesses":               count(lt.accesses),
		"tlb.miss_rate":             ratio(lt.tlb.Misses, lt.tlb.Hits+lt.tlb.Misses),
		"tlb.walk_cycles":           count(lt.tlb.WalkCycles),
		"tlb.pwc_hit_rate":          ratio(lt.tlb.PWCHits, lt.tlb.PWCHits+lt.tlb.PWCMisses),
		"machine.faults":            count(lt.faults),
		"machine.huge_fault_rate":   ratio(lt.hugeFaults, lt.faults),
		"machine.promotion_success": ratio(lt.promotions, lt.promotions+lt.failedPromotions),
		"machine.compacted_regions": count(lt.compacted),
		"machine.swapped_out_pages": count(lt.swappedOut),
		"machine.swapped_in_pages":  count(lt.swappedIn),
		"core.gemini_scans":         count(lt.geminiScans),
	}
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
