// Package frag fragments a buddy allocator's free memory to a target
// free memory fragmentation index (FMFI), reproducing the memory
// fragmenter program the paper's evaluation uses before each
// "fragmented" run (§6.1). It also provides a convenience probe that
// reports the fragmentation state of an allocator.
//
// The fragmenter works the way real-world fragmentation arises: it
// allocates a large population of base pages, then frees a pseudo-
// random subset, leaving free memory shattered into small blocks. The
// retained pages stay pinned until the caller releases them, region by
// region or all at once (or holds them for the lifetime of an
// experiment).
//
// See DESIGN.md §2 (system inventory, "fragmenter") and §6.2 of the
// paper for the fragmentation methodology this models.
package frag

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/buddy"
	"repro/internal/mem"
)

// Report summarises the fragmentation state of an allocator.
type Report struct {
	FMFI            float64 // fragmentation index at huge-page order
	FreePages       uint64
	FreeHugeRegions uint64 // free, aligned 2 MiB candidates
	LargestOrder    int
}

// Probe returns the current fragmentation state of the allocator.
func Probe(a *buddy.Allocator) Report {
	return Report{
		FMFI:            a.FMFI(mem.HugeOrder),
		FreePages:       a.FreePages(),
		FreeHugeRegions: a.FreeHugeCandidates(),
		LargestOrder:    a.LargestFreeOrder(),
	}
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("FMFI=%.3f free=%d pages hugeCandidates=%d largestOrder=%d",
		r.FMFI, r.FreePages, r.FreeHugeRegions, r.LargestOrder)
}

// Fragmenter fragments allocators and tracks the pages it holds so
// they can be released — wholesale or region by region (the pattern of
// real recovery: compaction and departing tenants free whole
// huge-page-sized regions at a time).
type Fragmenter struct {
	rng *rand.Rand
	a   *buddy.Allocator
	// pins has one bit per frame the fragmenter holds, a 512-bit row
	// per huge region: no per-frame hashing on the set-up and recovery
	// paths (DESIGN.md §7.2). held counts the set bits.
	pins [][mem.PagesPerHuge / 64]uint64
	held int
	// regionOrder lists the huge regions that hold pinned pages, in
	// the deterministic order ReleaseRegions frees them.
	regionOrder []uint64
}

// New returns a fragmenter over the allocator, seeded deterministically.
func New(a *buddy.Allocator, seed int64) *Fragmenter {
	return &Fragmenter{
		rng:  rand.New(rand.NewSource(seed)),
		a:    a,
		pins: make([][mem.PagesPerHuge / 64]uint64, (a.TotalPages()+mem.PagesPerHuge-1)/mem.PagesPerHuge),
	}
}

// HeldPages returns the number of frames the fragmenter is pinning.
func (f *Fragmenter) HeldPages() int { return f.held }

// HeldRegions returns the number of huge regions with pinned pages.
func (f *Fragmenter) HeldRegions() int { return len(f.regionOrder) }

// FragmentTo drives the allocator's FMFI at huge order to at least the
// target by allocating base pages and freeing a scattered subset. It
// consumes at most maxConsumeFraction of total memory as pinned pages
// (fraction in (0,1]). Returns the achieved FMFI.
//
// The strategy allocates pages in 512-page batches (one huge region)
// and keeps a random ~half of each batch, freeing the rest; every
// touched huge region becomes unusable for huge allocation while
// roughly half its space remains free, which raises FMFI quickly
// without exhausting memory.
func (f *Fragmenter) FragmentTo(target float64, maxConsumeFraction float64) float64 {
	if target <= 0 {
		return f.a.FMFI(mem.HugeOrder)
	}
	if maxConsumeFraction <= 0 || maxConsumeFraction > 1 {
		maxConsumeFraction = 1
	}
	budget := uint64(float64(f.a.TotalPages()) * maxConsumeFraction)
	for f.a.FMFI(mem.HugeOrder) < target && uint64(f.held) < budget {
		// Take one whole huge-aligned block, then free alternating
		// pages inside it: each freed page is a lone order-0 block
		// that cannot merge, so the region is shattered for good
		// while half its space stays free. The block was wholly free,
		// so its region held no pins before.
		start, err := f.a.Alloc(mem.HugeOrder)
		if err != nil {
			// No order-9 block left anywhere: FMFI is 1 by definition.
			break
		}
		hi := start / mem.PagesPerHuge
		row := &f.pins[hi]
		for i := 0; i < mem.PagesPerHuge; i++ {
			keep := i%2 == 0
			if f.rng.Intn(8) == 0 {
				keep = !keep
			}
			if keep {
				row[i/64] |= 1 << (i % 64)
				f.held++
			} else {
				f.a.Free(start+uint64(i), 0)
			}
		}
		if *row != [mem.PagesPerHuge / 64]uint64{} {
			f.regionOrder = append(f.regionOrder, hi)
		}
	}
	// Shuffle the release order so recovered regions appear at
	// scattered addresses, as real compaction and tenant churn yield.
	f.rng.Shuffle(len(f.regionOrder), func(i, j int) {
		f.regionOrder[i], f.regionOrder[j] = f.regionOrder[j], f.regionOrder[i]
	})
	return f.a.FMFI(mem.HugeOrder)
}

// ReleaseRegions frees every pinned page of up to n huge regions, in
// ascending frame order within each, modelling background compaction
// (or a departing tenant) recovering whole huge-page-sized blocks over
// time. Returns regions released.
func (f *Fragmenter) ReleaseRegions(n int) int {
	released := 0
	for ; released < n && len(f.regionOrder) > 0; released++ {
		hi := f.regionOrder[0]
		f.regionOrder = f.regionOrder[1:]
		for w, word := range f.pins[hi] {
			for ; word != 0; word &= word - 1 {
				f.a.Free(hi*mem.PagesPerHuge+uint64(w*64+bits.TrailingZeros64(word)), 0)
				f.held--
			}
		}
		f.pins[hi] = [mem.PagesPerHuge / 64]uint64{}
	}
	return released
}

// ReleaseAll frees every pinned page, letting memory coalesce again.
func (f *Fragmenter) ReleaseAll() { f.ReleaseRegions(len(f.regionOrder)) }

// CheckInvariants recomputes the fragmenter's books from its pin
// bitmaps: every pinned frame is allocated in the buddy, the held
// counter equals the pin popcount, and regionOrder lists exactly the
// regions holding pins, each once.
func (f *Fragmenter) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	listed := make([]bool, len(f.pins))
	for _, hi := range f.regionOrder {
		if hi >= uint64(len(f.pins)) || listed[hi] {
			vs = append(vs, audit.Violationf("frag", "region-order", hi,
				"region listed twice or beyond the %d regions", len(f.pins)))
			continue
		}
		listed[hi] = true
	}
	held := 0
	for hi, row := range f.pins {
		n := 0
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				n++
				fr := uint64(hi*mem.PagesPerHuge + w*64 + bits.TrailingZeros64(word))
				if fr >= f.a.TotalPages() || f.a.FrameFree(fr) {
					vs = append(vs, audit.Violationf("frag", "pinned-frame-free", fr,
						"pinned frame is free in (or beyond) the buddy"))
				}
			}
		}
		if (n > 0) != listed[hi] {
			vs = append(vs, audit.Violationf("frag", "region-order", uint64(hi),
				"region holds %d pins but listed=%v", n, listed[hi]))
		}
		held += n
	}
	if held != f.held {
		vs = append(vs, audit.Violationf("frag", "held-count", 0,
			"held counter %d, pins %d", f.held, held))
	}
	return vs
}
