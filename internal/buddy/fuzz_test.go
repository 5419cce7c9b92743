package buddy

import (
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// refAlloc is the rebuild-from-scratch oracle for untargeted Alloc: a
// linear sweep of the free-order array for the lowest free block of
// the smallest order >= order that has one, which is the block Alloc
// must split and return.
func refAlloc(a *Allocator, order int) (uint64, bool) {
	for o := order; o <= MaxOrder; o++ {
		for s, fo := range a.freeOrd {
			if int(fo) == o {
				return uint64(s), true
			}
		}
	}
	return 0, false
}

// refFreeRegions is the rebuild-from-scratch oracle for FreeRegions:
// the O(total pages) sweep of the free-order array that merges
// adjacent free blocks into maximal runs, in address order.
func refFreeRegions(a *Allocator) []mem.Region {
	var regions []mem.Region
	var i uint64
	for i < a.totalPages {
		o := a.freeOrd[i]
		if o < 0 {
			i++
			continue
		}
		size := uint64(1) << o
		if n := len(regions); n > 0 && regions[n-1].End() == i {
			regions[n-1].Pages += size
		} else {
			regions = append(regions, mem.Region{Start: i, Pages: size})
		}
		i += size
	}
	return regions
}

// filterRegions keeps the runs of at least minPages frames, truncated
// to the first max of them (max <= 0: all): the contract FreeRegions
// must meet against refFreeRegions.
func filterRegions(rs []mem.Region, minPages uint64, max int) []mem.Region {
	var out []mem.Region
	for _, r := range rs {
		if max > 0 && len(out) == max {
			break
		}
		if r.Pages >= minPages {
			out = append(out, r)
		}
	}
	return out
}

// fuzzOps replays data as two-byte operations (opcode mod 8, argument)
// on a, covering Alloc, Free, AllocAt, Reserve, AllocReservedPage,
// freeing a claimed page (back into its reservation while that is
// live), FinishReservation and ConsumeReservationHuge. It keeps its
// own books of live blocks, claims and reservations, so every call it
// makes is legal, and checks after each step an external
// page-conservation model (total = free + tracked allocations +
// withdrawn reservations) and, for every untargeted Alloc, refAlloc's
// linear sweep for the lowest free block. check runs after each step.
func fuzzOps(t *testing.T, a *Allocator, data []byte, check func(step int, op string)) {
	t.Helper()
	total := a.TotalPages()
	// AllocAt targets spread over the whole allocator: 256 argument
	// values times the stride.
	stride := max(1, total/256)
	huge := total / mem.PagesPerHuge

	type block struct {
		start uint64
		order int
	}
	type claim struct {
		frame, hugeIdx uint64
	}
	var allocs []block
	var claims []claim
	reserved := map[uint64]bool{}
	var reservedList []uint64 // deterministic pick order

	dropReserved := func(hi uint64) {
		delete(reserved, hi)
		for i, v := range reservedList {
			if v == hi {
				reservedList = append(reservedList[:i], reservedList[i+1:]...)
				break
			}
		}
	}

	step := func(step int, op string) {
		t.Helper()
		// Claimed pages of finished reservations are ordinary
		// allocated pages; active reservations withdraw their whole
		// region.
		model := a.FreePages() + 512*uint64(len(reserved))
		for _, b := range allocs {
			model += uint64(1) << b.order
		}
		for _, c := range claims {
			if !reserved[c.hugeIdx] {
				model += 1
			}
		}
		if model != total {
			t.Fatalf("step %d (%s): conservation model %d != total %d", step, op, model, total)
		}
		check(step, op)
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, uint64(data[i+1])
		switch op {
		case 0: // Alloc
			order := int(arg) % (MaxOrder + 1)
			want, wantOK := refAlloc(a, order)
			start, err := a.Alloc(order)
			if (err == nil) != wantOK || (wantOK && start != want) {
				t.Fatalf("step %d: Alloc(%d) = %#x, %v; linear sweep wants %#x, found=%v",
					i, order, start, err, want, wantOK)
			}
			if err == nil {
				allocs = append(allocs, block{start, order})
			}
			step(i, "Alloc")
		case 1: // Free a tracked allocation
			if len(allocs) == 0 {
				continue
			}
			j := int(arg) % len(allocs)
			b := allocs[j]
			allocs = append(allocs[:j], allocs[j+1:]...)
			a.Free(b.start, b.order)
			step(i, "Free")
		case 2: // AllocAt
			order := int(arg) % 4
			frame := (arg * stride) % total
			frame &^= (uint64(1) << order) - 1
			if err := a.AllocAt(frame, order); err == nil {
				allocs = append(allocs, block{frame, order})
			}
			step(i, "AllocAt")
		case 3: // Reserve
			if huge == 0 {
				continue
			}
			hi := arg % huge
			if _, err := a.Reserve(hi); err == nil {
				reserved[hi] = true
				reservedList = append(reservedList, hi)
			}
			step(i, "Reserve")
		case 4: // AllocReservedPage
			if len(reservedList) == 0 {
				continue
			}
			hi := reservedList[int(arg)%len(reservedList)]
			frame := hi*mem.PagesPerHuge + arg%mem.PagesPerHuge
			if err := a.AllocReservedPage(hi, frame); err == nil {
				claims = append(claims, claim{frame, hi})
			}
			step(i, "AllocReservedPage")
		case 5: // Free a claimed page (to reservation or free lists)
			if len(claims) == 0 {
				continue
			}
			j := int(arg) % len(claims)
			c := claims[j]
			claims = append(claims[:j], claims[j+1:]...)
			a.Free(c.frame, 0)
			step(i, "Free(claimed)")
		case 6: // FinishReservation
			if len(reservedList) == 0 {
				continue
			}
			hi := reservedList[int(arg)%len(reservedList)]
			if _, err := a.FinishReservation(hi); err == nil {
				dropReserved(hi)
			}
			step(i, "FinishReservation")
		case 7: // ConsumeReservationHuge
			if len(reservedList) == 0 {
				continue
			}
			hi := reservedList[int(arg)%len(reservedList)]
			if err := a.ConsumeReservationHuge(hi); err == nil {
				dropReserved(hi)
				allocs = append(allocs, block{hi * mem.PagesPerHuge, mem.HugeOrder})
			}
			step(i, "ConsumeReservationHuge")
		}
	}
}

// FuzzBuddyAllocFree drives random but legal operation sequences
// (fuzzOps) against a 4096-frame allocator and checks the allocator's
// own invariant audit after every step, besides fuzzOps's conservation
// model and lowest-free-block oracle.
func FuzzBuddyAllocFree(f *testing.F) {
	// Seeds touching every opcode at least once.
	f.Add([]byte{0, 9, 0, 0, 1, 0, 2, 8, 3, 2, 4, 7, 5, 0, 6, 0})
	f.Add([]byte{3, 1, 4, 0, 4, 1, 7, 0, 3, 1, 6, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 2, 31, 2, 64})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 4, 5, 5, 0, 6, 0, 7, 0, 7, 1})

	const totalPages = 8 * mem.PagesPerHuge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := New(totalPages)
		fuzzOps(t, a, data, func(step int, op string) {
			t.Helper()
			if vs := a.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("step %d (%s): %s", step, op, audit.Report(vs))
			}
		})
	})
}

// FuzzFreeRegionsOracle is FreeRegions's twin fuzzer: it drives
// fuzzOps sequences on allocators whose sizes are not multiples of 64
// (a partial last bitmap word, and with 70001 frames reservations and
// runs far longer than a word) and after every step compares the
// bitmap query with the filtered, truncated refFreeRegions sweep for
// every minimum length around the half-word skip threshold and every
// run limit, and audits the free-frame bitmap. The first byte picks
// the size.
func FuzzFreeRegionsOracle(f *testing.F) {
	f.Add([]byte{3, 0, 9, 0, 0, 1, 0, 2, 8, 3, 2, 4, 7, 5, 0, 6, 0})
	f.Add([]byte{3, 3, 1, 4, 0, 4, 1, 5, 0, 5, 1, 7, 0, 3, 1, 6, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 5, 1, 0, 2, 9, 0, 3, 1, 1})
	f.Add([]byte{2, 2, 0, 2, 33, 2, 66, 0, 6, 0, 0, 1, 1, 2, 63})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0})

	sizes := [...]uint64{1, 63, 65, 70001}
	mins := [...]uint64{1, 2, 32, 63, 64, 65, 512, 1024}
	maxes := [...]int{0, 1, 32}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 513 {
			data = data[:513]
		}
		a := New(sizes[int(data[0])%len(sizes)])
		var dst []mem.Region
		check := func(step int, op string) {
			t.Helper()
			ref := refFreeRegions(a)
			for _, m := range mins {
				for _, n := range maxes {
					dst = a.FreeRegions(dst[:0], m, n)
					if want := filterRegions(ref, m, n); !slices.Equal(dst, want) {
						t.Fatalf("step %d (%s): FreeRegions(%d, %d) = %v, sweep %v",
							step, op, m, n, dst, want)
					}
				}
			}
			if vs := a.checkFrames(); len(vs) != 0 {
				t.Fatalf("step %d (%s): %s", step, op, audit.Report(vs))
			}
		}
		check(-1, "New")
		fuzzOps(t, a, data[1:], check)
		if vs := a.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("end: %s", audit.Report(vs))
		}
	})
}
