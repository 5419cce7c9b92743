// Package hotbench defines the hot-path microbenchmark suite: one
// case per layer of the access pipeline (TLB lookup, native and
// nested walk costing, page-table walk, the cached and uncached
// access paths, demand faulting, and the end-to-end Figure 2 sweep),
// plus control-plane cases for the work fragmented and reused cells
// do outside it (fragmentation and recovery, ranged page-table scans,
// TLB region flushes, and order-0 allocation from fragmented memory),
// shared between `go test -bench` and paperbench's -bench-export mode
// so both always measure the same code with the same names. The
// access cases all run the one access path, workload.StepOne/StepN
// over machine.VM.AccessN; AccessUncached releases the walk cache so
// the same path takes the uncached reference walk. The suite pins the
// performance contract of DESIGN.md §7: the steady-state access path
// allocates nothing (TestAccessSteadyStateZeroAllocs) and regressions
// beyond tolerance against the committed BENCH_hotpath.json baseline
// fail CI.
package hotbench

import (
	"testing"

	"repro/internal/buddy"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Case is one microbenchmark: a name stable across releases (it keys
// the committed baseline) and a standard benchmark body.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Suite returns the hot-path cases in pipeline order, outermost last.
func Suite() []Case {
	return []Case{
		{"TLBLookup", benchTLBLookup},
		{"TLBNativeWalk", benchTLBNativeWalk},
		{"TLBNestedWalk", benchTLBNestedWalk},
		{"PageTableWalk", benchPageTableWalk},
		{"AccessSteadyState", benchAccessSteadyState},
		{"AccessUncached", benchAccessUncached},
		{"FullFault", benchFullFault},
		{"MicroSweep", benchMicroSweep},
		{"FragmentRecover", benchFragmentRecover},
		{"ScanRange", benchScanRange},
		{"FlushHugeRegion", benchFlushHugeRegion},
		{"AllocFragmented", benchAllocFragmented},
	}
}

// ByName returns the named case, or panics: a typo in a caller is a
// programming error, not a runtime condition.
func ByName(name string) Case {
	for _, c := range Suite() {
		if c.Name == name {
			return c
		}
	}
	panic("hotbench: no case named " + name)
}

// benchPages is the working set of the fixed-stream cases: large
// enough to exercise TLB and page-walk-cache misses, small enough to
// set up in microseconds.
const benchPages = 1 << 14

// addrStream returns a precomputed page-granular address stream over
// n pages, scrambled with a fixed LCG so set-indexed structures see
// realistic conflict behaviour. Deterministic: the suite never reads
// a clock or seed.
func addrStream(n int) []uint64 {
	addrs := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x % benchPages) << mem.PageShift
	}
	return addrs
}

// benchTLBLookup measures a pure second-level TLB probe on a warm
// TLB: the innermost operation of every access.
func benchTLBLookup(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	for _, va := range addrs {
		t.Insert(va, mem.Base)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095], mem.Base)
	}
}

// benchTLBNativeWalk measures one-dimensional walk costing (the
// page-walk-cache probe plus level counting) as charged on a native
// TLB miss.
func benchTLBNativeWalk(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.NativeWalkRefs(addrs[i&4095], mem.Base)
	}
}

// benchTLBNestedWalk measures two-dimensional walk costing — both
// page-walk caches plus the (g+1)(h+1)-1 reference count of §2.1 —
// as charged on a nested TLB miss.
func benchTLBNestedWalk(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := addrs[i&4095]
		t.NestedWalkRefs(va, mem.Base, va, mem.Base)
	}
}

// benchPageTableWalk measures one radix page-table lookup over a
// fully mapped working set: the per-level pointer chase the walk
// cache exists to skip.
func benchPageTableWalk(b *testing.B) {
	t := pagetable.New()
	for pn := uint64(0); pn < benchPages; pn++ {
		t.Map4K(pn<<mem.PageShift, pn)
	}
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095])
	}
}

// steadyVM builds a one-VM machine running the Figure 2 micro
// workload and warms it until faults subside, leaving the system in
// the steady state the Figure 2 sweep spends its time in.
func steadyVM(footprintMB int) (*machine.Machine, *machine.VM, *workload.Workload) {
	spec := workload.Micro(footprintMB)
	guestPages := uint64(footprintMB*4) << 20 >> mem.PageShift
	if min := uint64(256) << 20 >> mem.PageShift; guestPages < min {
		guestPages = min
	}
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVM(guestPages, policy.HugeOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
	w := workload.New(spec, vm, 1)
	for i := 0; i < 50000; i++ {
		w.StepOne()
	}
	return m, vm, w
}

// benchAccessSteadyState measures the full cached access path —
// walk-cache hit, heat bookkeeping, accessed bits, TLB access, stall
// draining — in the steady state. This is the case the 0-alloc
// invariant is pinned on: TestAccessSteadyStateZeroAllocs and the
// committed baseline both require 0 allocs/op here.
func benchAccessSteadyState(b *testing.B) {
	_, _, w := steadyVM(64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.StepOne()
	}
}

// benchAccessUncached measures the same steady state down the
// reference path with the walk cache released: two radix walks per
// access. The ratio to AccessSteadyState is the walk cache's speedup
// and is machine-independent enough to gate in CI.
func benchAccessUncached(b *testing.B) {
	_, vm, w := steadyVM(64)
	vm.SetWalkCacheEnabled(false)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.StepOne()
	}
}

// microSink keeps the compiler from eliding the sweep results.
var microSink sim.MicroResult

// runMicroSweep executes one full Figure 2 quick-grid sweep — every
// page-size configuration at every -quick dataset size, end to end
// (machine build, populate, warm, measure), exactly the cells
// `paperbench -exp motivation -quick` runs. This is the unit the
// "sweeps/sec" headline is quoted in.
func runMicroSweep() {
	for _, mb := range [3]int{4, 32, 128} {
		for _, c := range [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			microSink = sim.RunMicro(sim.MicroConfig{
				GuestHuge: c[0], HostHuge: c[1], DatasetMB: mb, Seed: 1,
			})
		}
	}
}

// benchMicroSweep measures end-to-end Figure 2 sweeps per second: page
// draws batched into precomputed address streams and fed to AccessN,
// keeping the TLB probe and walk-cache loop in cache across a whole
// request batch.
func benchMicroSweep(b *testing.B) {
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runMicroSweep()
	}
}

// benchFullFault measures cold accesses: demand-faulting a fresh page
// at both layers, walking both tables, and filling the walk cache.
// The fixture is rebuilt (off the clock) whenever guest memory runs
// out.
func benchFullFault(b *testing.B) {
	const faultPages = 1 << 15
	build := func() *machine.VM {
		m := machine.NewMachine(faultPages*4, machine.DefaultCosts())
		vm := m.AddVM(faultPages*2, policy.BaseOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
		vm.Guest.Space.MMap(faultPages*mem.PageSize, 0)
		return vm
	}
	vm := build()
	base := vm.Guest.Space.VMAs()[0].Start
	next := uint64(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if next == faultPages {
			b.StopTimer()
			vm = build()
			base = vm.Guest.Space.VMAs()[0].Start
			next = 0
			b.StartTimer()
		}
		vm.Access(base + next*mem.PageSize)
		next++
	}
}

// benchFragmentRecover measures the fragmenter's control plane as a
// fragmented cell drives it: fragment a fresh 2560 MB host allocator
// to FMFI 0.96 at density 0.55 with a fixed seed, then drain it one
// huge region at a time, as recovery does. Building the allocator is
// off the clock.
func benchFragmentRecover(b *testing.B) {
	const hostPages = 2560 << 20 >> mem.PageShift
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := buddy.New(hostPages)
		b.StartTimer()
		f := frag.New(a, 1)
		f.FragmentTo(0.96, 0.55)
		for f.ReleaseRegions(1) > 0 {
		}
	}
}

// scanSink keeps the compiler from eliding ranged-scan visits.
var scanSink int

// benchScanRange measures one 2 MiB ranged page-table scan, the probe
// khugepaged-style promotion, FHPM's population count and UnmapVMA
// issue per region, near the top of a table with 400 MB mapped in
// base pages: the case where a scan that walks everything below its
// range costs the most.
func benchScanRange(b *testing.B) {
	const mappedPages = 400 << 20 >> mem.PageShift
	t := pagetable.New()
	for pn := uint64(0); pn < mappedPages; pn++ {
		t.Map4K(pn<<mem.PageShift, pn)
	}
	start := uint64(mappedPages)<<mem.PageShift - 2*mem.HugeSize
	visit := func(pagetable.Mapping) bool { scanSink++; return true }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.ScanRange(start, start+mem.HugeSize, visit)
	}
}

// benchFlushHugeRegion measures a 2 MiB region shootdown on a full
// default-geometry TLB. The flushed regions hold no entries, so every
// iteration sees the same full TLB and costs a whole search.
func benchFlushHugeRegion(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	for pn := uint64(0); t.Stats().Insert4K < uint64(t.Entries()); pn++ {
		t.Insert(pn<<mem.PageShift, mem.Base)
	}
	far := uint64(1) << 40
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.FlushHugeRegion(far + uint64(i&1023)*mem.HugeSize)
	}
}

// benchAllocFragmented measures an order-0 allocate-and-free pair on a
// 2560 MB allocator fragmented to FMFI 0.96 at density 0.55 (seed 1),
// the lowest-address-first search every demand fault makes in a
// fragmented cell. Fragmenting is off the clock.
func benchAllocFragmented(b *testing.B) {
	a := buddy.New(2560 << 20 >> mem.PageShift)
	frag.New(a, 1).FragmentTo(0.96, 0.55)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(f, 0)
	}
}
