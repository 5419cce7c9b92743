package frag

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/buddy"
	"repro/internal/mem"
)

const pages = 64 * 1024 // 256 MiB

func TestProbePristine(t *testing.T) {
	a := buddy.New(pages)
	r := Probe(a)
	if r.FMFI != 0 {
		t.Errorf("pristine FMFI = %v", r.FMFI)
	}
	if r.FreePages != pages {
		t.Errorf("FreePages = %d", r.FreePages)
	}
	if r.FreeHugeRegions != pages/mem.PagesPerHuge {
		t.Errorf("FreeHugeRegions = %d", r.FreeHugeRegions)
	}
	if r.LargestOrder != buddy.MaxOrder {
		t.Errorf("LargestOrder = %d", r.LargestOrder)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestFragmentToTarget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 42)
	got := f.FragmentTo(0.8, 0.9)
	if got < 0.8 {
		t.Fatalf("achieved FMFI = %v, want >= 0.8", got)
	}
	if f.HeldPages() == 0 {
		t.Fatal("no pages held")
	}
	// Free memory remains substantial but shattered.
	rep := Probe(a)
	if rep.FreePages == 0 {
		t.Error("fragmenter consumed all memory")
	}
	if rep.FreeHugeRegions > pages/mem.PagesPerHuge/4 {
		t.Errorf("too many huge candidates remain: %d", rep.FreeHugeRegions)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestFragmentToZeroTarget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 1)
	if got := f.FragmentTo(0, 0.5); got != 0 {
		t.Errorf("FMFI = %v", got)
	}
	if f.HeldPages() != 0 {
		t.Errorf("held %d pages for zero target", f.HeldPages())
	}
}

func TestFragmentBudget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 7)
	f.FragmentTo(0.99, 0.01) // tiny budget
	if uint64(f.HeldPages()) > pages/100+mem.PagesPerHuge {
		t.Errorf("budget exceeded: held %d", f.HeldPages())
	}
}

func TestFragmentBadBudgetDefaults(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 7)
	got := f.FragmentTo(0.5, -1) // invalid fraction falls back to 1
	if got < 0.5 {
		t.Errorf("achieved FMFI = %v", got)
	}
}

func TestReleaseAllRestores(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 42)
	f.FragmentTo(0.8, 0.9)
	f.ReleaseAll()
	if f.HeldPages() != 0 {
		t.Fatalf("held %d after release", f.HeldPages())
	}
	if a.FreePages() != pages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if got := a.FMFI(mem.HugeOrder); got != 0 {
		t.Fatalf("FMFI after full release = %v", got)
	}
}

func TestFragmentOutOfMemoryStops(t *testing.T) {
	a := buddy.New(1024) // tiny arena
	f := New(a, 9)
	got := f.FragmentTo(0.9999, 1)
	// Must terminate; leftover batch is rolled back so free pages and
	// held pages account for everything.
	if a.FreePages()+uint64(f.HeldPages()) != 1024 {
		t.Fatalf("page leak: free=%d held=%d", a.FreePages(), f.HeldPages())
	}
	_ = got
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		a := buddy.New(pages)
		f := New(a, 123)
		fm := f.FragmentTo(0.7, 0.9)
		return fm, f.HeldPages()
	}
	f1, h1 := run()
	f2, h2 := run()
	if f1 != f2 || h1 != h2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", f1, h1, f2, h2)
	}
}

// refFragmenter is the map-based reference fragmenter, the
// rebuild-from-scratch oracle for the pin bitmaps: a flat held list
// with a frame-to-index map, and per-region frame lists in allocation
// order.
// It makes the same RNG draws and buddy calls as Fragmenter, so the
// two must leave twin allocators in identical states.
type refFragmenter struct {
	rng         *rand.Rand
	held        []uint64
	a           *buddy.Allocator
	heldIdx     map[uint64]int
	regionOrder []uint64
	byRegion    map[uint64][]uint64
}

func newRef(a *buddy.Allocator, seed int64) *refFragmenter {
	return &refFragmenter{
		rng:      rand.New(rand.NewSource(seed)),
		a:        a,
		heldIdx:  make(map[uint64]int),
		byRegion: make(map[uint64][]uint64),
	}
}

func (f *refFragmenter) FragmentTo(target, maxConsumeFraction float64) float64 {
	if target <= 0 {
		return f.a.FMFI(mem.HugeOrder)
	}
	if maxConsumeFraction <= 0 || maxConsumeFraction > 1 {
		maxConsumeFraction = 1
	}
	budget := uint64(float64(f.a.TotalPages()) * maxConsumeFraction)
	for f.a.FMFI(mem.HugeOrder) < target && uint64(len(f.held)) < budget {
		start, err := f.a.Alloc(mem.HugeOrder)
		if err != nil {
			break
		}
		for i := 0; i < mem.PagesPerHuge; i++ {
			keep := i%2 == 0
			if f.rng.Intn(8) == 0 {
				keep = !keep
			}
			fr := start + uint64(i)
			if keep {
				f.heldIdx[fr] = len(f.held)
				f.held = append(f.held, fr)
				hi := fr / mem.PagesPerHuge
				if len(f.byRegion[hi]) == 0 {
					f.regionOrder = append(f.regionOrder, hi)
				}
				f.byRegion[hi] = append(f.byRegion[hi], fr)
			} else {
				f.a.Free(fr, 0)
			}
		}
	}
	f.rng.Shuffle(len(f.regionOrder), func(i, j int) {
		f.regionOrder[i], f.regionOrder[j] = f.regionOrder[j], f.regionOrder[i]
	})
	return f.a.FMFI(mem.HugeOrder)
}

func (f *refFragmenter) ReleaseRegions(n int) int {
	released := 0
	for released < n && len(f.regionOrder) > 0 {
		hi := f.regionOrder[0]
		f.regionOrder = f.regionOrder[1:]
		for _, fr := range f.byRegion[hi] {
			f.a.Free(fr, 0)
			f.unhold(fr)
		}
		delete(f.byRegion, hi)
		released++
	}
	return released
}

func (f *refFragmenter) unhold(fr uint64) {
	i, ok := f.heldIdx[fr]
	if !ok {
		return
	}
	last := f.held[len(f.held)-1]
	f.held[i] = last
	f.heldIdx[last] = i
	f.held = f.held[:len(f.held)-1]
	delete(f.heldIdx, fr)
}

func (f *refFragmenter) ReleaseAll() {
	for _, fr := range f.held {
		f.a.Free(fr, 0)
	}
	f.held = f.held[:0]
	f.heldIdx = make(map[uint64]int)
	f.regionOrder = nil
	f.byRegion = make(map[uint64][]uint64)
}

// FuzzFragmenterOracle drives Fragmenter and the map-based reference
// on twin allocators with the same seed, size, target and density,
// then through a random sequence of releases (ops: 0xff releases all,
// a low nibble of 0xf fragments again, anything else releases up to
// op%8 regions). After every step both must pin the same pages and
// regions and leave bit-identical free memory, and the fragmenter and
// its buddy must pass their audits.
func FuzzFragmenterOracle(f *testing.F) {
	f.Add(int64(42), uint16(120), uint8(200), uint8(230), []byte{1, 3, 7, 0xff})
	f.Add(int64(7), uint16(3), uint8(250), uint8(255), []byte{2, 0x0f, 5, 5, 5})
	f.Add(int64(1), uint16(500), uint8(245), uint8(140), []byte{1, 1, 1, 1, 0x1f, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, seed int64, size uint16, target, density uint8, ops []byte) {
		// 1..~32k frames, not necessarily a whole number of regions.
		total := uint64(size)%32768 + 1
		tgt := float64(target) / 255
		dens := float64(density) / 255
		a, b := buddy.New(total), buddy.New(total)
		got, ref := New(a, seed), newRef(b, seed)
		check := func(step string) {
			t.Helper()
			if got.HeldPages() != len(ref.held) || got.HeldRegions() != len(ref.regionOrder) {
				t.Fatalf("%s: held %d pages/%d regions, reference %d/%d", step,
					got.HeldPages(), got.HeldRegions(), len(ref.held), len(ref.regionOrder))
			}
			if fa, fb := a.FMFI(mem.HugeOrder), b.FMFI(mem.HugeOrder); fa != fb {
				t.Fatalf("%s: FMFI %v, reference %v", step, fa, fb)
			}
			if ra, rb := a.FreeRegions(nil, 1, 0), b.FreeRegions(nil, 1, 0); !slices.Equal(ra, rb) {
				t.Fatalf("%s: free regions diverge:\n got %v\n ref %v", step, ra, rb)
			}
			if vs := audit.Run(got, a); len(vs) != 0 {
				t.Fatalf("%s: %s", step, audit.Report(vs))
			}
		}
		if fa, fb := got.FragmentTo(tgt, dens), ref.FragmentTo(tgt, dens); fa != fb {
			t.Fatalf("FragmentTo achieved %v, reference %v", fa, fb)
		}
		check("fragment")
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			switch {
			case op == 0xff:
				got.ReleaseAll()
				ref.ReleaseAll()
			case op&0xf == 0xf:
				got.FragmentTo(tgt, dens)
				ref.FragmentTo(tgt, dens)
			default:
				n := int(op % 8)
				if ng, nr := got.ReleaseRegions(n), ref.ReleaseRegions(n); ng != nr {
					t.Fatalf("ReleaseRegions(%d) released %d, reference %d", n, ng, nr)
				}
			}
			check(fmt.Sprintf("op %#x", op))
		}
	})
}

// TestFragmentDrainAllocs pins what fragmenting and then fully
// draining a 2560 MB allocator costs in allocations: the fragmenter,
// its RNG and pin bitmap (4) and regionOrder's doublings up to ~1250
// regions (~12) — 16 in all, a constant that does not grow with the
// ~320k pinned frames. The buddy allocator's free-block index is
// sized once in buddy.New, so its splits and merges allocate nothing.
// refFragmenter costs ~14000: a per-frame map or per-region slice on
// these paths fails here. The allocator is reused across runs;
// draining returns it to pristine.
func TestFragmentDrainAllocs(t *testing.T) {
	a := buddy.New(2560 << 20 >> mem.PageShift)
	allocs := testing.AllocsPerRun(3, func() {
		f := New(a, 1)
		f.FragmentTo(0.96, 0.55)
		for f.ReleaseRegions(1) > 0 {
		}
		if f.HeldPages() != 0 || a.FreePages() != a.TotalPages() {
			t.Fatalf("drain left %d pinned, %d free of %d", f.HeldPages(), a.FreePages(), a.TotalPages())
		}
	})
	if allocs > 20 {
		t.Fatalf("fragment+drain allocated %v times, want <= 20", allocs)
	}
}

// TestAuditCatchesCorruption corrupts a fragmenter's books one way at a
// time and expects CheckInvariants to name the broken invariant.
func TestAuditCatchesCorruption(t *testing.T) {
	fresh := func() *Fragmenter {
		f := New(buddy.New(pages), 42)
		f.FragmentTo(0.8, 0.9)
		f.ReleaseRegions(3)
		if vs := f.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("clean fragmenter: %s", audit.Report(vs))
		}
		return f
	}
	firstPin := func(f *Fragmenter) uint64 {
		hi := f.regionOrder[0]
		for w, word := range f.pins[hi] {
			if word != 0 {
				return hi*mem.PagesPerHuge + uint64(w*64+bits.TrailingZeros64(word))
			}
		}
		t.Fatal("listed region holds no pins")
		return 0
	}
	cases := []struct {
		invariant string
		corrupt   func(f *Fragmenter)
	}{
		{"pinned-frame-free", func(f *Fragmenter) { f.a.Free(firstPin(f), 0) }},
		{"held-count", func(f *Fragmenter) { f.held++ }},
		{"region-order", func(f *Fragmenter) {
			f.regionOrder = append(f.regionOrder, f.regionOrder[0])
		}},
		{"region-order", func(f *Fragmenter) { f.regionOrder = f.regionOrder[1:] }},
		{"region-order", func(f *Fragmenter) {
			f.regionOrder = append(f.regionOrder, uint64(len(f.pins)))
		}},
	}
	for _, c := range cases {
		f := fresh()
		c.corrupt(f)
		if vs := f.CheckInvariants(); audit.Count(vs, c.invariant) != 1 {
			t.Errorf("%s: want exactly one violation, got:\n%s", c.invariant, audit.Report(vs))
		}
	}
}
