package workload

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// basePol is a minimal base-page policy for tests.
type basePol struct{}

func (basePol) Name() string { return "base" }
func (basePol) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}
func (basePol) Tick(*machine.Layer) {}

func newVM(t *testing.T, guestMB int) *machine.VM {
	t.Helper()
	m := machine.NewMachine(uint64(guestMB*3)<<20>>mem.PageShift, machine.DefaultCosts())
	return m.AddVM(uint64(guestMB)<<20>>mem.PageShift, basePol{}, basePol{}, tlb.DefaultConfig())
}

func TestTable2Complete(t *testing.T) {
	specs := Table2()
	if len(specs) != 18 {
		t.Fatalf("Table2 has %d specs", len(specs))
	}
	seen := map[string]bool{}
	var sensitive, insensitive int
	for _, s := range specs {
		if s.Name == "" || s.FootprintMB <= 0 || s.RequestPages <= 0 {
			t.Errorf("bad spec: %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.TLBSensitive {
			sensitive++
		} else {
			insensitive++
		}
		if s.Pages() != uint64(s.FootprintMB)*256 {
			t.Errorf("%s: Pages = %d", s.Name, s.Pages())
		}
	}
	// Shore and SP.D are the paper's non-TLB-sensitive pair.
	if insensitive != 2 {
		t.Errorf("non-TLB-sensitive count = %d, want 2", insensitive)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("redis")
	if err != nil || s.Name != "redis" {
		t.Fatalf("ByName(redis) = %+v, %v", s, err)
	}
	if _, err := ByName("micro"); err != nil {
		t.Fatalf("ByName(micro): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestStaticPopulates(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(16) // 16 MiB = 4096 pages
	w := New(spec, vm, 1)
	if w.Touched() != spec.Pages() {
		t.Fatalf("touched = %d, want %d", w.Touched(), spec.Pages())
	}
	if vm.Guest.Table.Mapped4K() != spec.Pages() {
		t.Fatalf("mapped = %d", vm.Guest.Table.Mapped4K())
	}
}

func TestGradualGrows(t *testing.T) {
	vm := newVM(t, 256)
	spec := Xapian()
	spec.FootprintMB = 32
	w := New(spec, vm, 2)
	start := w.Touched()
	if start >= spec.Pages() {
		t.Fatalf("gradual started fully populated: %d", start)
	}
	for i := 0; i < 50; i++ {
		w.StepN(20, nil)
	}
	if w.Touched() <= start {
		t.Fatal("gradual never grew")
	}
}

func TestStepStats(t *testing.T) {
	spec := Masstree()
	spec.FootprintMB = 16
	for _, perReq := range [][]uint64{nil, make([]uint64, 10)} {
		w := New(spec, newVM(t, 256), 3)
		total := w.StepN(10, perReq)
		if total < 10*spec.ServiceCycles {
			t.Fatalf("total %d cycles below service floor", total)
		}
		var sum uint64
		for _, c := range perReq {
			if c < spec.ServiceCycles {
				t.Fatalf("latency %d below service time", c)
			}
			sum += c
		}
		if perReq != nil && sum != total {
			t.Fatalf("per-request costs sum to %d, total %d", sum, total)
		}
	}
}

func TestThroughputWorkloadNoLatencies(t *testing.T) {
	spec := Canneal()
	spec.FootprintMB = 16
	bulk := New(spec, newVM(t, 256), 4).StepN(5, nil)
	perReq := make([]uint64, 5)
	per := New(spec, newVM(t, 256), 4).StepN(5, perReq)
	if bulk != per {
		t.Fatalf("bulk %d cycles, per-request %d", bulk, per)
	}
	for _, c := range perReq {
		if c < spec.ServiceCycles {
			t.Fatalf("request cost %d below service time", c)
		}
	}
}

func TestChurnRemapsVMAs(t *testing.T) {
	vm := newVM(t, 256)
	spec := Redis()
	spec.FootprintMB = 32
	spec.ChurnRate = 5 // force frequent churn
	w := New(spec, vm, 5)
	before := make([]*machine.VMA, len(w.vmas))
	copy(before, w.vmas)
	for i := 0; i < 60; i++ {
		w.StepN(10, nil)
	}
	changed := false
	for i := range before {
		if before[i] != w.vmas[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("churn never replaced a VMA")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, uint64) {
		vm := newVM(t, 256)
		spec := RocksDB()
		spec.FootprintMB = 32
		w := New(spec, vm, 42)
		var cycles uint64
		for i := 0; i < 20; i++ {
			cycles += w.StepN(10, nil)
		}
		return cycles, w.Touched()
	}
	c1, o1 := runOnce()
	c2, o2 := runOnce()
	if c1 != c2 || o1 != o2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, o1, c2, o2)
	}
}

func TestTeardownFreesMemory(t *testing.T) {
	vm := newVM(t, 256)
	total := vm.Guest.Buddy.FreePages()
	spec := Micro(16)
	w := New(spec, vm, 6)
	w.Teardown()
	if vm.Guest.Buddy.FreePages() != total {
		t.Fatalf("pages leaked: %d != %d", vm.Guest.Buddy.FreePages(), total)
	}
	if len(vm.Guest.Space.VMAs()) != 0 {
		t.Fatal("VMAs survived teardown")
	}
}

func TestAccessDistributions(t *testing.T) {
	for _, pat := range []Pattern{Uniform, Zipf, Sequential, Mixed} {
		vm := newVM(t, 256)
		spec := Micro(16)
		spec.Access = pat
		w := New(spec, vm, 7)
		// All drawn pages must be inside the footprint.
		for i := 0; i < 1000; i++ {
			w.drawInto(w.pageBuf[:1])
			if p := w.pageBuf[0]; p >= spec.Pages() {
				t.Fatalf("pattern %d: page %d out of range", pat, p)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(64)
	spec.Access = Zipf
	w := New(spec, vm, 8)
	counts := map[uint64]int{}
	const draws = 20000
	drawn := make([]uint64, draws)
	w.drawInto(drawn)
	for _, p := range drawn {
		counts[p]++
	}
	// The hottest 1% of pages should absorb a large share.
	hot := 0
	for p, c := range counts {
		if p < spec.Pages()/100 {
			hot += c
		}
	}
	if float64(hot)/draws < 0.18 {
		t.Fatalf("zipf hot share = %.2f, want skew", float64(hot)/draws)
	}
}

func TestTinyFootprintManyVMAs(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(1)
	spec.VMACount = 8
	w := New(spec, vm, 9)
	w.StepN(5, nil) // must not panic
}

// nextPage is the math/rand reference for drawInto: one page index
// from the access distribution, confined to the touched frontier, via
// the plain math/rand calls.
func (w *Workload) nextPage() uint64 {
	limit := w.touched
	if limit == 0 {
		limit = 1
	}
	switch w.Access {
	case Uniform:
		return uint64(w.rng.Int63n(int64(limit)))
	case Zipf:
		return w.zipf.Uint64() % limit
	case Sequential:
		w.seqCursor++
		return w.seqCursor % limit
	default: // Mixed
		if w.rng.Intn(2) == 0 {
			return w.zipf.Uint64() % limit
		}
		return uint64(w.rng.Int63n(int64(limit)))
	}
}

// refStepOne is the reference request StepOne must reproduce: page
// draws through nextPage, one Access per page, and per-page growth
// and churn repopulation.
func (w *Workload) refStepOne() uint64 {
	reqCycles := w.ServiceCycles
	for a := 0; a < w.RequestPages; a++ {
		reqCycles += w.vm.Access(w.addrs[w.nextPage()])
	}
	if w.Style != Gradual {
		return reqCycles
	}
	for n := min(w.touched+2, w.totalPages); w.touched < n; w.touched++ {
		w.vm.Access(w.addrs[w.touched])
	}
	if w.ChurnRate > 0 && w.rng.Float64() < w.ChurnRate/100 {
		i := w.rng.Intn(len(w.vmas))
		w.vm.Guest.UnmapVMA(w.vmas[i])
		off := uint64(w.rng.Intn(mem.PagesPerHuge))
		w.vmas[i] = w.vm.Guest.Space.MMap(w.vmaPages*mem.PageSize, off)
		w.rebuildAddrs()
		share := w.touched / uint64(len(w.vmas))
		for p := uint64(0); p < share && p < w.vmaPages; p++ {
			w.vm.Access(w.vmas[i].Start + p*mem.PageSize)
		}
	}
	return reqCycles
}

// TestDrawIntoMatchesNextPage holds drawInto's replicated draws to the
// math/rand calls they stand in for: for every pattern and a spread of
// limits (1, powers of two, odd sizes, and 3·2^61, where Int63n
// rejects a quarter of its draws), twin workloads drawing through
// drawInto and nextPage produce the same page sequence and leave the
// RNG at the same next Int63.
func TestDrawIntoMatchesNextPage(t *testing.T) {
	const pages = 1 << 20
	twin := func(pat Pattern, limit uint64) *Workload {
		w := &Workload{Spec: Spec{Access: pat}, rng: rand.New(rand.NewSource(11)),
			totalPages: pages, touched: limit}
		w.zipf = rand.NewZipf(w.rng, 1.1, 64, pages-1)
		return w
	}
	for _, pat := range []Pattern{Uniform, Zipf, Sequential, Mixed} {
		for _, limit := range []uint64{1, 2, 3, 4096, 4097, 1<<20 - 1, 3 << 61} {
			batched, ref := twin(pat, limit), twin(pat, limit)
			for _, k := range []int{1, 7, 2048} {
				got := make([]uint64, k)
				batched.drawInto(got)
				for i, p := range got {
					if want := ref.nextPage(); p != want {
						t.Fatalf("pattern %d limit %d batch %d draw %d: drawInto %d, nextPage %d",
							pat, limit, k, i, p, want)
					}
				}
			}
			if b, r := batched.rng.Int63(), ref.rng.Int63(); b != r {
				t.Fatalf("pattern %d limit %d: next Int63 %d after drawInto, %d after nextPage",
					pat, limit, b, r)
			}
		}
	}
}

// TestStepNMatchesStepOne is the access-path equivalence property
// promised in the StepN contract: for every Table 2 workload spec, the
// Figure 2 micro spec and two churn-heavy Gradual specs — covering
// Static and Gradual styles and every access pattern — n requests
// through StepN (bulk and per-request) and through a StepOne loop
// consume the identical RNG stream and charge the identical cycles as
// refStepOne on an uncached twin, leaving the frontier and the VM's
// TLB in bit-identical state.
func TestStepNMatchesStepOne(t *testing.T) {
	// churn remaps a VMA every few requests; tiny-churn has more VMAs
	// than footprint pages, so every churn repopulates nothing.
	churn := Redis()
	churn.Name, churn.ChurnRate = "churn", 5
	tiny := Redis()
	tiny.Name, tiny.FootprintMB, tiny.VMACount, tiny.ChurnRate = "tiny-churn", 1, 512, 5
	specs := append(Table2(), Micro(8), churn, tiny)
	for _, spec := range specs {
		spec := spec
		if spec.FootprintMB > 64 {
			spec.FootprintMB = 64 // keep the grid fast; style/pattern is what matters
		}
		t.Run(spec.Name, func(t *testing.T) {
			const reqs = 300

			vmRef := newVM(t, 192)
			vmRef.SetWalkCacheEnabled(false)
			wRef := New(spec, vmRef, 42)
			var refTotal uint64
			refPer := make([]uint64, reqs)
			for i := range refPer {
				refPer[i] = wRef.refStepOne()
				refTotal += refPer[i]
			}

			vmBulk := newVM(t, 192)
			wBulk := New(spec, vmBulk, 42)
			bulkTotal := wBulk.StepN(reqs, nil)

			vmPer := newVM(t, 192)
			wPer := New(spec, vmPer, 42)
			perReq := make([]uint64, reqs)
			perTotal := wPer.StepN(reqs, perReq)

			vmOne := newVM(t, 192)
			wOne := New(spec, vmOne, 42)
			oneReq := make([]uint64, reqs)
			for i := range oneReq {
				oneReq[i] = wOne.StepOne()
			}

			if bulkTotal != refTotal || perTotal != refTotal {
				t.Fatalf("cycles: bulk %d, perReq %d, reference %d",
					bulkTotal, perTotal, refTotal)
			}
			for i := range refPer {
				if perReq[i] != refPer[i] || oneReq[i] != refPer[i] {
					t.Fatalf("request %d: perReq %d, StepOne %d, reference %d",
						i, perReq[i], oneReq[i], refPer[i])
				}
			}
			refNext := wRef.rng.Int63()
			for name, w := range map[string]*Workload{"bulk": wBulk, "perReq": wPer, "StepOne": wOne} {
				if w.Touched() != wRef.Touched() {
					t.Fatalf("%s frontier %d, reference %d", name, w.Touched(), wRef.Touched())
				}
				if w.vm.TLB.Stats() != vmRef.TLB.Stats() {
					t.Fatalf("%s TLB stats diverged\n%s: %+v\nref: %+v",
						name, name, w.vm.TLB.Stats(), vmRef.TLB.Stats())
				}
				if next := w.rng.Int63(); next != refNext {
					t.Fatalf("%s RNG diverged: next Int63 %d, reference %d", name, next, refNext)
				}
			}
		})
	}
}
