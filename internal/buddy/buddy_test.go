package buddy

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/audit"
	"repro/internal/mem"
)

const testPages = 16 * 1024 // 64 MiB

func TestNewAllFree(t *testing.T) {
	a := New(testPages)
	if a.TotalPages() != testPages {
		t.Fatalf("TotalPages = %d", a.TotalPages())
	}
	if a.FreePages() != testPages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	if a.LargestFreeOrder() != MaxOrder {
		t.Fatalf("LargestFreeOrder = %d", a.LargestFreeOrder())
	}
}

func TestNewNonPowerOfTwo(t *testing.T) {
	a := New(1000) // not a power of two
	if a.FreePages() != 1000 {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	// Allocate everything page by page.
	for i := 0; i < 1000; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("expected ErrNoMemory, got %v", err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := New(testPages)
	f, err := a.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if f%8 != 0 {
		t.Fatalf("block %#x not aligned to order 3", f)
	}
	if a.FreePages() != testPages-8 {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	a.Free(f, 3)
	if a.FreePages() != testPages {
		t.Fatalf("FreePages after free = %d", a.FreePages())
	}
	// After freeing everything, memory should coalesce fully.
	if a.FreeBlockCount(MaxOrder) != testPages>>MaxOrder {
		t.Fatalf("max-order blocks = %d, want %d",
			a.FreeBlockCount(MaxOrder), testPages>>MaxOrder)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestAllocLowestFirst(t *testing.T) {
	a := New(testPages)
	f1, _ := a.Alloc(0)
	f2, _ := a.Alloc(0)
	if f1 != 0 || f2 != 1 {
		t.Fatalf("expected frames 0,1; got %d,%d", f1, f2)
	}
	a.Free(f1, 0)
	f3, _ := a.Alloc(0)
	if f3 != 0 {
		t.Fatalf("expected reuse of frame 0, got %d", f3)
	}
}

func TestAllocBadOrder(t *testing.T) {
	a := New(testPages)
	if _, err := a.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Error("Alloc(MaxOrder+1) succeeded")
	}
}

func TestAllocAt(t *testing.T) {
	a := New(testPages)
	// Targeted allocation in pristine memory.
	if err := a.AllocAt(512, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	if a.IsFree(512, mem.HugeOrder) {
		t.Error("block still free after AllocAt")
	}
	// Same block again must fail.
	if err := a.AllocAt(512, mem.HugeOrder); !errors.Is(err, ErrNotFree) {
		t.Fatalf("double AllocAt: %v", err)
	}
	// Single page inside an untouched area.
	if err := a.AllocAt(12345, 0); err != nil {
		t.Fatal(err)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	a.Free(512, mem.HugeOrder)
	a.Free(12345, 0)
	if a.FreePages() != testPages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
}

func TestAllocAtMisaligned(t *testing.T) {
	a := New(testPages)
	if err := a.AllocAt(1, 1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("misaligned AllocAt: %v", err)
	}
	if err := a.AllocAt(testPages, 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("out-of-range AllocAt: %v", err)
	}
}

func TestAllocAtInsideAllocated(t *testing.T) {
	a := New(testPages)
	f, _ := a.Alloc(mem.HugeOrder)
	if err := a.AllocAt(f+5, 0); !errors.Is(err, ErrNotFree) {
		t.Fatalf("AllocAt inside allocated: %v", err)
	}
}

func TestFreeMergesAcrossSplits(t *testing.T) {
	a := New(1024)
	var frames []uint64
	for i := 0; i < 1024; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Free in random order; everything must merge back to one block.
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	for _, f := range frames {
		a.Free(f, 0)
	}
	if a.FreeBlockCount(MaxOrder) != 1 {
		t.Fatalf("expected single max-order block, got %d", a.FreeBlockCount(MaxOrder))
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(testPages)
	f, _ := a.Alloc(0)
	a.Free(f, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(f, 0)
}

func TestReservation(t *testing.T) {
	a := New(testPages)
	r, err := a.Reserve(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start() != 3*mem.PagesPerHuge {
		t.Fatalf("Start = %d", r.Start())
	}
	if a.ReservationCount() != 1 {
		t.Fatalf("ReservationCount = %d", a.ReservationCount())
	}
	// The reserved range is not available to general allocation.
	if err := a.AllocAt(r.Start(), 0); !errors.Is(err, ErrReserved) {
		t.Fatalf("AllocAt into reservation: %v", err)
	}
	if a.IsFree(r.Start(), 0) {
		t.Error("reserved page reported free")
	}
	// Claim a few pages then finish.
	for i := uint64(0); i < 10; i++ {
		if err := a.AllocReservedPage(3, r.Start()+i); err != nil {
			t.Fatal(err)
		}
	}
	if r.Allocated() != 10 {
		t.Fatalf("Allocated = %d", r.Allocated())
	}
	// Claiming the same page twice fails.
	if err := a.AllocReservedPage(3, r.Start()); !errors.Is(err, ErrNotFree) {
		t.Fatalf("double claim: %v", err)
	}
	n, err := a.FinishReservation(3)
	if err != nil || n != 10 {
		t.Fatalf("FinishReservation = %d, %v", n, err)
	}
	// 502 pages returned to free lists.
	if a.FreePages() != testPages-10 {
		t.Fatalf("FreePages = %d, want %d", a.FreePages(), testPages-10)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestReservationConsumeHuge(t *testing.T) {
	a := New(testPages)
	if _, err := a.Reserve(1); err != nil {
		t.Fatal(err)
	}
	if err := a.ConsumeReservationHuge(1); err != nil {
		t.Fatal(err)
	}
	if a.ReservationCount() != 0 {
		t.Fatalf("ReservationCount = %d", a.ReservationCount())
	}
	// Whole huge page stays allocated.
	if a.FreePages() != testPages-mem.PagesPerHuge {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	a.Free(1*mem.PagesPerHuge, mem.HugeOrder)
	if a.FreePages() != testPages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
}

func TestReservationConsumeHugePartiallyClaimed(t *testing.T) {
	a := New(testPages)
	r, _ := a.Reserve(2)
	if err := a.AllocReservedPage(2, r.Start()); err != nil {
		t.Fatal(err)
	}
	if err := a.ConsumeReservationHuge(2); err == nil {
		t.Error("ConsumeReservationHuge succeeded on partially claimed reservation")
	}
}

func TestReservationErrors(t *testing.T) {
	a := New(testPages)
	if _, err := a.Reserve(testPages / mem.PagesPerHuge); err == nil {
		t.Error("Reserve beyond end succeeded")
	}
	if _, err := a.Reserve(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(0); err == nil {
		t.Error("double Reserve succeeded")
	}
	if err := a.AllocReservedPage(5, 5*mem.PagesPerHuge); !errors.Is(err, ErrNotReserved) {
		t.Errorf("AllocReservedPage on unreserved: %v", err)
	}
	if _, err := a.FinishReservation(5); !errors.Is(err, ErrNotReserved) {
		t.Errorf("FinishReservation on unreserved: %v", err)
	}
	if err := a.ConsumeReservationHuge(5); !errors.Is(err, ErrNotReserved) {
		t.Errorf("ConsumeReservationHuge on unreserved: %v", err)
	}
	// Reserving an occupied region fails.
	if err := a.AllocAt(1*mem.PagesPerHuge, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(1); !errors.Is(err, ErrNotFree) {
		t.Errorf("Reserve occupied: %v", err)
	}
}

func TestFMFI(t *testing.T) {
	a := New(testPages)
	if got := a.FMFI(mem.HugeOrder); got != 0 {
		t.Fatalf("pristine FMFI = %v", got)
	}
	// Fragment: allocate every other page in a large area.
	for f := uint64(0); f < 8192; f += 2 {
		if err := a.AllocAt(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := a.FMFI(mem.HugeOrder)
	if got <= 0 || got >= 1 {
		t.Fatalf("fragmented FMFI = %v, want in (0,1)", got)
	}
	// FMFI at order 0 is always 0 (all free memory usable as pages).
	if a.FMFI(0) != 0 {
		t.Fatalf("FMFI(0) = %v", a.FMFI(0))
	}
}

func TestFMFIEmpty(t *testing.T) {
	a := New(256)
	for {
		if _, err := a.Alloc(0); err != nil {
			break
		}
	}
	if a.FMFI(mem.HugeOrder) != 1 {
		t.Fatalf("FMFI with no free memory = %v", a.FMFI(mem.HugeOrder))
	}
	if a.LargestFreeOrder() != -1 {
		t.Fatalf("LargestFreeOrder = %d", a.LargestFreeOrder())
	}
}

func TestFreeHugeCandidates(t *testing.T) {
	a := New(4096) // 4 max-order blocks = 8 huge candidates
	if got := a.FreeHugeCandidates(); got != 8 {
		t.Fatalf("FreeHugeCandidates = %d, want 8", got)
	}
	// Shatter one huge region.
	if err := a.AllocAt(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeHugeCandidates(); got != 7 {
		t.Fatalf("FreeHugeCandidates after shatter = %d, want 7", got)
	}
}

func TestFreeRegions(t *testing.T) {
	a := New(4096)
	regions := a.FreeRegions(nil, 1, 0)
	if len(regions) != 1 || regions[0].Start != 0 || regions[0].Pages != 4096 {
		t.Fatalf("pristine FreeRegions = %v", regions)
	}
	// Punch a hole.
	if err := a.AllocAt(1000, 0); err != nil {
		t.Fatal(err)
	}
	regions = a.FreeRegions(nil, 1, 0)
	if len(regions) != 2 {
		t.Fatalf("FreeRegions after hole = %v", regions)
	}
	if regions[0].End() != 1000 || regions[1].Start != 1001 {
		t.Fatalf("hole boundaries wrong: %v", regions)
	}
	// The query appends: existing elements of dst are kept.
	pre := []mem.Region{{Start: 1, Pages: 2}}
	if got := a.FreeRegions(pre, 1, 1); len(got) != 2 || got[0] != pre[0] || got[1] != regions[0] {
		t.Fatalf("FreeRegions(pre, 1, 1) = %v", got)
	}
}

func TestFreeRegionsEmpty(t *testing.T) {
	a := New(64)
	for i := 0; i < 64; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.FreeRegions(nil, 1, 0); len(got) != 0 {
		t.Fatalf("FreeRegions when full = %v", got)
	}
}

// fullAllocator returns an allocator over total frames with every
// frame allocated, then frees the frames of each [start, end) span one
// by one, leaving exactly those spans free.
func fullAllocator(t *testing.T, total uint64, free ...[2]uint64) *Allocator {
	t.Helper()
	a := New(total)
	for f := uint64(0); f < total; f++ {
		if err := a.AllocAt(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range free {
		for f := sp[0]; f < sp[1]; f++ {
			a.Free(f, 0)
		}
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	return a
}

// TestFreeRegionsEdges pins run boundaries where the word scan and the
// half-word skip could go wrong: partial last words, runs crossing
// word boundaries, all-free and all-allocated memory, the run limit,
// and runs of exactly 62, 63 and 64 frames around the skip threshold
// (minPages >= 63), placed both aligned and straddling words.
func TestFreeRegionsEdges(t *testing.T) {
	type span = [2]uint64
	cases := []struct {
		name     string
		total    uint64
		free     []span
		minPages uint64
		max      int
		want     []span
	}{
		{"all-free-partial-word", 70, []span{{0, 70}}, 1, 0, []span{{0, 70}}},
		{"all-free-skip", 70, []span{{0, 70}}, 64, 0, []span{{0, 70}}},
		{"all-free-too-short", 70, []span{{0, 70}}, 71, 0, nil},
		{"all-allocated", 130, nil, 1, 0, nil},
		{"last-frame-partial-word", 70, []span{{3, 5}, {66, 70}}, 1, 0, []span{{3, 5}, {66, 70}}},
		{"last-frame-single", 65, []span{{64, 65}}, 1, 0, []span{{64, 65}}},
		{"tail-run-skip", 200, []span{{100, 200}}, 63, 0, []span{{100, 200}}},
		{"tail-run-single-frame-total", 1, []span{{0, 1}}, 1, 0, []span{{0, 1}}},
		{"word-boundary-crossings", 256, []span{{10, 11}, {60, 70}, {127, 129}, {191, 256}}, 1, 0,
			[]span{{10, 11}, {60, 70}, {127, 129}, {191, 256}}},
		{"max-one", 256, []span{{10, 11}, {60, 70}, {127, 129}}, 1, 1, []span{{10, 11}}},
		{"max-one-skip", 1024, []span{{5, 50}, {100, 300}, {400, 900}}, 64, 1, []span{{100, 300}}},
		{"min-filters", 256, []span{{10, 11}, {60, 70}, {127, 129}}, 2, 0, []span{{60, 70}, {127, 129}}},
		{"run-62-straddling", 256, []span{{40, 102}}, 63, 0, nil},
		{"run-63-straddling", 256, []span{{40, 103}}, 63, 0, []span{{40, 103}}},
		{"run-63-straddling-min-64", 256, []span{{40, 103}}, 64, 0, nil},
		{"run-63-low-aligned", 256, []span{{64, 127}}, 63, 0, []span{{64, 127}}},
		{"run-63-high-aligned", 256, []span{{97, 160}}, 63, 0, []span{{97, 160}}},
		{"run-64-aligned", 256, []span{{64, 128}}, 64, 0, []span{{64, 128}}},
		{"run-64-half-offset", 256, []span{{96, 160}}, 64, 0, []span{{96, 160}}},
		{"run-64-straddling", 256, []span{{70, 134}}, 64, 0, []span{{70, 134}}},
		{"run-64-min-65", 256, []span{{70, 134}}, 65, 0, nil},
		{"short-runs-then-long", 512, []span{{0, 40}, {41, 100}, {130, 140}, {150, 400}}, 63, 0, []span{{150, 400}}},
		{"long-run-from-frame-zero", 512, []span{{0, 300}}, 512, 0, nil},
		{"adjacent-long-runs", 512, []span{{0, 100}, {101, 300}, {301, 512}}, 100, 0,
			[]span{{0, 100}, {101, 300}, {301, 512}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := fullAllocator(t, c.total, c.free...)
			var want []mem.Region
			for _, sp := range c.want {
				want = append(want, mem.Region{Start: sp[0], Pages: sp[1] - sp[0]})
			}
			got := a.FreeRegions(nil, c.minPages, c.max)
			if !slices.Equal(got, want) {
				t.Fatalf("FreeRegions(nil, %d, %d) = %v, want %v", c.minPages, c.max, got, want)
			}
			if ref := filterRegions(refFreeRegions(a), c.minPages, c.max); !slices.Equal(got, ref) {
				t.Fatalf("FreeRegions(nil, %d, %d) = %v, reference sweep %v", c.minPages, c.max, got, ref)
			}
		})
	}
}

// TestFreeRegionsAllocs pins the query's allocation-free contract:
// both the Gemini-shaped (minPages 64, no limit) and the
// CA-paging-shaped (minPages 1, max 32) query into a buffer with room
// allocate nothing.
func TestFreeRegionsAllocs(t *testing.T) {
	a := New(testPages)
	rng := rand.New(rand.NewSource(3))
	var free []uint64
	for i := 0; i < 6000; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			free = append(free, f)
		}
	}
	for _, f := range free {
		a.Free(f, 0)
	}
	dst := make([]mem.Region, 0, len(a.FreeRegions(nil, 1, 0)))
	for _, q := range []struct {
		min uint64
		max int
	}{{64, 0}, {1, 32}} {
		if n := testing.AllocsPerRun(100, func() { dst = a.FreeRegions(dst[:0], q.min, q.max) }); n != 0 {
			t.Errorf("FreeRegions(dst, %d, %d) allocated %v times per run, want 0", q.min, q.max, n)
		}
	}
}

// TestRandomOpsInvariant drives the allocator with a random mix of
// operations and checks invariants and conservation of pages.
func TestRandomOpsInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(4096)
		type alloc struct {
			frame uint64
			order int
		}
		var live []alloc
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1: // alloc random order
				o := rng.Intn(MaxOrder + 1)
				if f, err := a.Alloc(o); err == nil {
					live = append(live, alloc{f, o})
				}
			case 2: // free one
				if len(live) > 0 {
					i := rng.Intn(len(live))
					a.Free(live[i].frame, live[i].order)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 3: // targeted alloc
				o := rng.Intn(3)
				f := uint64(rng.Intn(4096)) &^ ((uint64(1) << o) - 1)
				if f+(uint64(1)<<o) <= 4096 {
					if err := a.AllocAt(f, o); err == nil {
						live = append(live, alloc{f, o})
					}
				}
			}
		}
		if vs := a.CheckInvariants(); len(vs) != 0 {
			t.Logf("invariant: %v", audit.Report(vs))
			return false
		}
		var allocated uint64
		for _, l := range live {
			allocated += uint64(1) << l.order
		}
		return a.FreePages()+allocated == 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(f, 0)
	}
}

func BenchmarkAllocAtHuge(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi := uint64(i) % (1 << 20 / mem.PagesPerHuge)
		if err := a.AllocAt(hi*mem.PagesPerHuge, mem.HugeOrder); err != nil {
			b.Fatal(err)
		}
		a.Free(hi*mem.PagesPerHuge, mem.HugeOrder)
	}
}
