package buddy

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// expectViolations asserts that every wanted invariant is reported and
// that nothing outside the wanted set is.
func expectViolations(t *testing.T, vs []audit.Violation, want ...string) {
	t.Helper()
	allowed := make(map[string]bool, len(want))
	for _, w := range want {
		allowed[w] = true
		if !audit.Has(vs, w) {
			t.Errorf("auditor missed injected %q violation; got:\n%s", w, audit.Report(vs))
		}
	}
	for _, v := range vs {
		if !allowed[v.Invariant] {
			t.Errorf("unexpected collateral violation: %v", v)
		}
	}
}

// mutatedAllocator returns an allocator with a mixed live state that
// audits clean before mutation.
func mutatedAllocator(t *testing.T) *Allocator {
	t.Helper()
	a := New(16 * 1024)
	for i := 0; i < 40; i++ {
		if _, err := a.Alloc(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Reserve(20); err != nil {
		t.Fatal(err)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	return a
}

// freeSingleton allocates a buddy pair and frees one side, leaving a
// guaranteed unmergeable order-0 free block.
func freeSingleton(t *testing.T, a *Allocator) (even, odd uint64) {
	t.Helper()
	f1, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(f1, 0) // keep f1+1 allocated: f1 stays a lone order-0 block
	return f1, f1 + 1
}

func TestAuditCatchesLeakedFrame(t *testing.T) {
	a := mutatedAllocator(t)
	f, _ := freeSingleton(t, a)
	// Drop the free block from the free books (order array, index and
	// free-frame bitmap) without adjusting the counters: a frame leak.
	a.freeOrd[f] = -1
	a.index[0].clear(f)
	a.markFrames(f, 0, false)
	expectViolations(t, a.CheckInvariants(),
		"conservation", "free-count", "fmfi-recompute")
}

func TestAuditCatchesFreePageCounterDrift(t *testing.T) {
	a := mutatedAllocator(t)
	a.freePages--
	expectViolations(t, a.CheckInvariants(), "conservation", "fmfi-recompute")
}

func TestAuditCatchesDoubleReserve(t *testing.T) {
	a := mutatedAllocator(t)
	// Fabricate a reservation over a region whose frames still sit on
	// the free lists: the frames are now owned twice.
	var hi uint64
	found := false
	for start := range a.freeOrd {
		if int(a.freeOrd[start]) >= mem.HugeOrder {
			hi = uint64(start) / mem.PagesPerHuge
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no free huge block to double-reserve")
	}
	a.reservations[hi] = &Reservation{HugeIndex: hi}
	expectViolations(t, a.CheckInvariants(), "reservation-free-overlap")
}

func TestAuditCatchesReservationClaimDrift(t *testing.T) {
	a := mutatedAllocator(t)
	r, ok := a.ReservationAt(20)
	if !ok {
		t.Fatal("setup reservation missing")
	}
	r.nAllocated++
	expectViolations(t, a.CheckInvariants(), "reservation-claims")
}

func TestAuditCatchesMisfiledFreeBlock(t *testing.T) {
	a := mutatedAllocator(t)
	even, odd := freeSingleton(t, a)
	// Move the free block to the odd start and re-file it as order 1:
	// a start not aligned for its order.
	a.freeOrd[even] = -1
	a.freeOrd[odd] = 1
	a.counts[0]--
	a.counts[1]++
	a.freePages++ // the order-1 claim covers one extra page
	vs := a.CheckInvariants()
	if !audit.Has(vs, "block-alignment") {
		t.Errorf("auditor missed block-alignment; got:\n%s", audit.Report(vs))
	}
}

// TestAuditCatchesFreeIndexDrift breaks each clause of the free-index
// invariant on its own and expects the audit to name it, and nothing
// else: a free block missing from its order's bitmap (Alloc would
// never find it), a stale bit for an allocated start, a summary bit
// out of step with its word, and a hint past the first nonzero
// summary word.
func TestAuditCatchesFreeIndexDrift(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a *Allocator, free, used uint64)
	}{
		{"missing-bit", func(a *Allocator, free, _ uint64) { a.index[0].words[free>>6] &^= 1 << (free & 63) }},
		{"stale-bit", func(a *Allocator, _, used uint64) { a.index[0].words[used>>6] |= 1 << (used & 63) }},
		{"summary-clear", func(a *Allocator, free, _ uint64) { a.index[0].summary[free>>12] &^= 1 << (free >> 6 & 63) }},
		{"summary-stale", func(a *Allocator, _, _ uint64) {
			// The top of the allocator is one free order-10 block, so
			// the last order-0 word holds no free starts.
			x := &a.index[0]
			last := len(x.words) - 1
			x.summary[last>>6] |= 1 << (last & 63)
		}},
		{"hint-past-lowest", func(a *Allocator, _, _ uint64) { a.index[0].hint = len(a.index[0].summary) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := mutatedAllocator(t)
			free, used := freeSingleton(t, a)
			if vs := a.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("baseline not clean: %s", audit.Report(vs))
			}
			if a.index[0].words[len(a.index[0].words)-1] != 0 {
				t.Fatal("setup: last order-0 word holds free starts")
			}
			c.mutate(a, free, used)
			expectViolations(t, a.CheckInvariants(), "free-index")
		})
	}
}

// TestAuditCatchesFreeFrameDrift breaks the free-frame bitmap on its
// own and expects the "free-frames" invariant, and nothing else: a
// stale bit for an allocated frame (FreeRegions would report a run
// through it), a cleared bit inside a free block (a run would be cut
// short or missed), and a set padding bit past the last frame (a run
// would extend off the end).
func TestAuditCatchesFreeFrameDrift(t *testing.T) {
	cases := []struct {
		name   string
		total  uint64
		mutate func(a *Allocator, free, used uint64)
	}{
		{"stale-set-bit", 16 * 1024, func(a *Allocator, _, used uint64) { a.frames[used>>6] |= 1 << (used & 63) }},
		{"cleared-live-bit", 16 * 1024, func(a *Allocator, free, _ uint64) { a.frames[free>>6] &^= 1 << (free & 63) }},
		{"padding-bit", 16*1024 + 70, func(a *Allocator, _, _ uint64) {
			a.frames[len(a.frames)-1] |= 1 << 63
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := New(c.total)
			for i := 0; i < 40; i++ {
				if _, err := a.Alloc(i % 4); err != nil {
					t.Fatal(err)
				}
			}
			free, used := freeSingleton(t, a)
			if vs := a.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("baseline not clean: %s", audit.Report(vs))
			}
			c.mutate(a, free, used)
			expectViolations(t, a.CheckInvariants(), "free-frames")
		})
	}
}
