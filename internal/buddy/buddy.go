// Package buddy implements a binary buddy allocator modelled on the
// Linux page allocator, the component Gemini's prototype modifies most
// heavily (~1700 LoC in page_alloc.c per §5 of the paper).
//
// Free memory is grouped into order-x blocks of 2^x naturally aligned
// base frames, for orders 0 through MaxOrder (4 KiB through 4 MiB).
// Beyond the classic Alloc/Free interface the allocator supports the
// operations Gemini needs:
//
//   - AllocAt: targeted allocation of a specific block, used by the
//     enhanced memory allocator (EMA) to place base pages at the frame
//     computed from a VMA's offset descriptor.
//   - Reservations: huge-page-sized regions temporarily withdrawn from
//     general allocation (the huge booking component), from which only
//     page-at-a-time targeted allocations or a whole-huge-page
//     consumption are allowed until release.
//   - FMFI: the free memory fragmentation index used by Ingens, HawkEye
//     and Gemini's Algorithm 1 to measure fragmentation.
//
// Allocation is deterministic: untargeted allocations always return the
// lowest-addressed free block of the requested order, which both keeps
// runs reproducible and mimics the anti-fragmentation benefit of
// packing small allocations low (§5, "Gemini contiguity list").
//
// The allocator also keeps a free-frame bitmap, updated by Alloc,
// AllocAt and Free, so the maximal free runs that feed the §5
// contiguity list are a bounded word scan (FreeRegions) into a buffer
// the caller owns, not a rebuild over every frame.
//
// See DESIGN.md §2 (system inventory) for the allocator's role and
// DESIGN.md §7 (performance model) for the flat free-book layout the
// hot path depends on.
package buddy

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/audit"
	"repro/internal/mem"
)

// MaxOrder is the largest block order. Order 10 blocks span 1024 base
// frames (4 MiB), matching the paper's description of the Linux buddy
// allocator ("existing buddy allocator can only allocate up to 4MB").
const MaxOrder = 10

// NumOrders is the number of distinct block orders (0..MaxOrder).
const NumOrders = MaxOrder + 1

// Errors returned by the allocator.
var (
	ErrNoMemory    = errors.New("buddy: out of memory at requested order")
	ErrNotFree     = errors.New("buddy: target block is not free")
	ErrReserved    = errors.New("buddy: target block is reserved")
	ErrBadArgument = errors.New("buddy: invalid argument")
	ErrNotReserved = errors.New("buddy: region is not reserved")
)

// freeIndex is one order's exact index of free-block starts: bit b of
// words is set exactly when a free block of the order starts at frame
// b<<order. Bit j of summary is set exactly when words[j] is nonzero,
// and no summary word below hint is nonzero, so the lowest free block
// is a forward summary scan from hint plus two TrailingZeros64. The
// fault path allocates lowest-address-first on every fault, so the
// search costs a few word loads whatever the number of free blocks,
// and the index never grows after New.
type freeIndex struct {
	words   []uint64
	summary []uint64
	hint    int
}

// set marks block index b free.
func (x *freeIndex) set(b uint64) {
	w := b >> 6
	x.words[w] |= 1 << (b & 63)
	x.summary[w>>6] |= 1 << (w & 63)
	if s := int(w >> 6); s < x.hint {
		x.hint = s
	}
}

// clear marks block index b not free.
func (x *freeIndex) clear(b uint64) {
	w := b >> 6
	x.words[w] &^= 1 << (b & 63)
	if x.words[w] == 0 {
		x.summary[w>>6] &^= 1 << (w & 63)
	}
}

// lowest returns the lowest set block index, advancing hint past the
// empty summary words it skips, or false when the index is empty.
func (x *freeIndex) lowest() (uint64, bool) {
	for ; x.hint < len(x.summary); x.hint++ {
		if sw := x.summary[x.hint]; sw != 0 {
			w := x.hint<<6 + bits.TrailingZeros64(sw)
			return uint64(w<<6 + bits.TrailingZeros64(x.words[w])), true
		}
	}
	return 0, false
}

// Reservation tracks a huge-page-sized region booked by Gemini's huge
// booking component. Pages within are handed out individually through
// AllocReservedPage; unclaimed pages return to the free lists when the
// reservation is released.
type Reservation struct {
	// HugeIndex identifies the 2 MiB region (frame / 512).
	HugeIndex uint64
	// allocated marks which of the 512 pages have been handed out.
	allocated [mem.PagesPerHuge]bool
	// nAllocated counts handed-out pages.
	nAllocated int
	// Deadline is the tick at which the booking times out; maintained
	// by the booking component, stored here for introspection.
	Deadline uint64
}

// Start returns the first frame of the reserved region.
func (r *Reservation) Start() uint64 { return r.HugeIndex * mem.PagesPerHuge }

// Allocated returns how many pages of the reservation have been claimed.
func (r *Reservation) Allocated() int { return r.nAllocated }

// Claimed reports whether page i (0..511) of the reservation has been
// handed out.
func (r *Reservation) Claimed(i int) bool {
	return i >= 0 && i < mem.PagesPerHuge && r.allocated[i]
}

// Allocator is a binary buddy allocator over a contiguous range of
// frames [0, TotalPages).
type Allocator struct {
	totalPages uint64
	freePages  uint64

	// freeOrd[f] is the order of the free block starting at frame f,
	// or -1 when f does not start a free block. A flat array rather
	// than a map: the buddy books are consulted on every fault-path
	// allocation and free, and frame numbers are dense in
	// [0, totalPages), so the array replaces hashing (and map growth)
	// with one indexed byte load at a cost of one byte per frame.
	freeOrd []int8
	// index[o] is the exact bitmap index of free order-o block starts
	// that untargeted allocation searches; all orders share one
	// backing array allocated in New.
	index [NumOrders]freeIndex
	// counts[o] is the number of live free blocks at order o.
	counts [NumOrders]uint64

	// frames is the free-frame bitmap: bit f is set exactly when
	// frame f lies inside a free block, and the padding bits past
	// totalPages stay clear. Only Alloc, AllocAt and Free change
	// whether a frame is free, so only they write it; splits and
	// merges move frames between free blocks and leave it alone.
	// FreeRegions and FrameFree read it.
	frames []uint64

	// reservations maps huge index -> active reservation.
	reservations map[uint64]*Reservation
}

// New creates an allocator managing totalPages base frames, all free.
func New(totalPages uint64) *Allocator {
	a := &Allocator{
		totalPages:   totalPages,
		freeOrd:      make([]int8, totalPages),
		frames:       make([]uint64, (totalPages+63)/64),
		reservations: make(map[uint64]*Reservation),
	}
	for i := range a.freeOrd {
		a.freeOrd[i] = -1
	}
	for i := range a.frames {
		a.frames[i] = ^uint64(0)
	}
	if tail := totalPages & 63; tail != 0 {
		a.frames[len(a.frames)-1] = 1<<tail - 1
	}
	// One backing array holds every order's bitmap and summary.
	var words [NumOrders]int
	total := 0
	for o := range words {
		words[o] = int((totalPages>>o + 63) / 64)
		total += words[o] + (words[o]+63)/64
	}
	backing := make([]uint64, total)
	for o, n := range words {
		m := (n + 63) / 64
		a.index[o] = freeIndex{words: backing[:n:n], summary: backing[n : n+m : n+m]}
		backing = backing[n+m:]
	}
	// Seed free lists with the largest aligned blocks that fit.
	frame := uint64(0)
	for frame < totalPages {
		o := MaxOrder
		for o > 0 {
			size := uint64(1) << o
			if frame%size == 0 && frame+size <= totalPages {
				break
			}
			o--
		}
		a.insertFree(frame, uint8(o))
		frame += uint64(1) << o
	}
	a.freePages = totalPages
	return a
}

// TotalPages returns the number of frames managed by the allocator.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages returns the number of currently free frames (excluding
// reserved but unclaimed pages, which are counted as unavailable).
func (a *Allocator) FreePages() uint64 { return a.freePages }

// FreeBlockCount returns the number of free blocks at the given order.
func (a *Allocator) FreeBlockCount(order int) uint64 {
	if order < 0 || order > MaxOrder {
		return 0
	}
	return a.counts[order]
}

// insertFree adds a free block to the books and the order's index.
func (a *Allocator) insertFree(start uint64, order uint8) {
	a.freeOrd[start] = int8(order)
	a.counts[order]++
	a.index[order].set(start >> order)
}

// removeFree deletes a known-free block from the books and the index.
func (a *Allocator) removeFree(start uint64, order uint8) {
	a.freeOrd[start] = -1
	a.counts[order]--
	a.index[order].clear(start >> order)
}

// popLowest removes and returns the lowest-addressed free block of the
// order, or false if none exists.
func (a *Allocator) popLowest(order int) (uint64, bool) {
	b, ok := a.index[order].lowest()
	if !ok {
		return 0, false
	}
	start := b << order
	a.removeFree(start, uint8(order))
	return start, true
}

// markFrames sets (free) or clears the free-frame bits of the
// naturally aligned block [start, start+2^order). A block of order 6
// or less lies inside one bitmap word and costs one read-modify-write;
// a larger block covers whole words.
func (a *Allocator) markFrames(start uint64, order int, free bool) {
	size := uint64(1) << uint(order)
	if size <= 64 {
		mask := ^uint64(0) >> (64 - size) << (start & 63)
		if free {
			a.frames[start>>6] |= mask
		} else {
			a.frames[start>>6] &^= mask
		}
		return
	}
	var fill uint64
	if free {
		fill = ^uint64(0)
	}
	words := a.frames[start>>6 : (start+size)>>6]
	for i := range words {
		words[i] = fill
	}
}

// Alloc allocates a block of 2^order frames and returns its first
// frame. It splits larger blocks as needed, always choosing the
// lowest-addressed candidate.
func (a *Allocator) Alloc(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("%w: order %d", ErrBadArgument, order)
	}
	for o := order; o <= MaxOrder; o++ {
		start, ok := a.popLowest(o)
		if !ok {
			continue
		}
		// Split down to the requested order, freeing upper halves.
		for cur := o; cur > order; cur-- {
			half := uint64(1) << (cur - 1)
			a.insertFree(start+half, uint8(cur-1))
		}
		a.freePages -= uint64(1) << order
		a.markFrames(start, order, false)
		return start, nil
	}
	return 0, ErrNoMemory
}

// findContaining locates the free block that contains the range
// [frame, frame+2^order). Returns the block start and order, or false.
func (a *Allocator) findContaining(frame uint64, order int) (uint64, uint8, bool) {
	for o := order; o <= MaxOrder; o++ {
		start := frame &^ ((uint64(1) << o) - 1)
		if start < a.totalPages && a.freeOrd[start] == int8(o) {
			return start, uint8(o), true
		}
	}
	return 0, 0, false
}

// AllocAt allocates the specific block [frame, frame+2^order). The
// frame must be naturally aligned to the order and the whole block must
// be free (possibly inside a larger free block, which is split).
func (a *Allocator) AllocAt(frame uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("%w: order %d", ErrBadArgument, order)
	}
	size := uint64(1) << order
	if frame%size != 0 {
		return fmt.Errorf("%w: frame %#x not aligned to order %d", ErrBadArgument, frame, order)
	}
	if frame+size > a.totalPages {
		return fmt.Errorf("%w: frame %#x beyond end", ErrBadArgument, frame)
	}
	if a.isReservedRange(frame, size) {
		return ErrReserved
	}
	start, fo, ok := a.findContaining(frame, order)
	if !ok {
		return ErrNotFree
	}
	a.removeFree(start, fo)
	// Split the containing block down, keeping the half containing
	// the target and freeing the other half, until the block is the
	// target itself.
	for cur := int(fo); cur > order; cur-- {
		half := uint64(1) << (cur - 1)
		if frame < start+half {
			a.insertFree(start+half, uint8(cur-1))
		} else {
			a.insertFree(start, uint8(cur-1))
			start += half
		}
	}
	a.freePages -= size
	a.markFrames(frame, order, false)
	return nil
}

// IsFree reports whether the whole block [frame, frame+2^order) is
// currently free (and unreserved).
func (a *Allocator) IsFree(frame uint64, order int) bool {
	if order < 0 || order > MaxOrder {
		return false
	}
	size := uint64(1) << order
	if frame%size != 0 || frame+size > a.totalPages {
		return false
	}
	if a.isReservedRange(frame, size) {
		return false
	}
	_, _, ok := a.findContaining(frame, order)
	return ok
}

// FrameFree reports whether the single frame sits inside any free
// block, regardless of alignment or reservations. The cross-layer
// auditor uses it to detect frames that are simultaneously mapped and
// free (a use-after-free or leak in the making).
func (a *Allocator) FrameFree(frame uint64) bool {
	return frame < a.totalPages && a.frames[frame>>6]&(1<<(frame&63)) != 0
}

// Free returns the block [frame, frame+2^order) to the allocator,
// merging with free buddies as far as possible.
func (a *Allocator) Free(frame uint64, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: Free with bad order %d", order))
	}
	size := uint64(1) << order
	if frame%size != 0 || frame+size > a.totalPages {
		panic(fmt.Sprintf("buddy: Free(%#x, %d) out of range or misaligned", frame, order))
	}
	// A page claimed from a still-active reservation returns to that
	// reservation, not to the free lists: the region stays withdrawn
	// from general allocation until the booking ends.
	if order == 0 && len(a.reservations) != 0 {
		if r, ok := a.reservations[frame/mem.PagesPerHuge]; ok {
			idx := frame - r.Start()
			if !r.allocated[idx] {
				panic(fmt.Sprintf("buddy: double free of reserved page %#x", frame))
			}
			r.allocated[idx] = false
			r.nAllocated--
			return
		}
	}
	if a.freeOrd[frame] >= 0 {
		panic(fmt.Sprintf("buddy: double free of block %#x", frame))
	}
	a.freePages += size
	a.markFrames(frame, order, true)
	o := uint8(order)
	start := frame
	for int(o) < MaxOrder {
		buddyStart := start ^ (uint64(1) << o)
		if buddyStart+(uint64(1)<<o) > a.totalPages || a.freeOrd[buddyStart] != int8(o) {
			break
		}
		bo := o
		// Merge with buddy.
		a.removeFree(buddyStart, bo)
		if buddyStart < start {
			start = buddyStart
		}
		o++
	}
	a.insertFree(start, o)
}

// --- Reservations (huge booking) ---

// isReservedRange reports whether any frame in [frame, frame+size)
// belongs to an active reservation.
func (a *Allocator) isReservedRange(frame, size uint64) bool {
	if len(a.reservations) == 0 {
		return false
	}
	first := frame / mem.PagesPerHuge
	last := (frame + size - 1) / mem.PagesPerHuge
	for hi := first; hi <= last; hi++ {
		if _, ok := a.reservations[hi]; ok {
			return true
		}
	}
	return false
}

// Reserve withdraws the 2 MiB region with the given huge index from
// general allocation. The whole region must currently be free. The
// returned Reservation hands out pages via AllocReservedPage or is
// consumed whole via ConsumeReservationHuge.
func (a *Allocator) Reserve(hugeIndex uint64) (*Reservation, error) {
	start := hugeIndex * mem.PagesPerHuge
	if start+mem.PagesPerHuge > a.totalPages {
		return nil, fmt.Errorf("%w: huge index %d beyond end", ErrBadArgument, hugeIndex)
	}
	if _, ok := a.reservations[hugeIndex]; ok {
		return nil, fmt.Errorf("%w: huge index %d already reserved", ErrBadArgument, hugeIndex)
	}
	if err := a.AllocAt(start, mem.HugeOrder); err != nil {
		return nil, err
	}
	r := &Reservation{HugeIndex: hugeIndex}
	a.reservations[hugeIndex] = r
	return r, nil
}

// ReservationAt returns the active reservation covering the huge index,
// if any.
func (a *Allocator) ReservationAt(hugeIndex uint64) (*Reservation, bool) {
	r, ok := a.reservations[hugeIndex]
	return r, ok
}

// ReservationCount returns the number of active reservations.
func (a *Allocator) ReservationCount() int { return len(a.reservations) }

// ForEachReservation calls fn with every active reservation, in
// unspecified order. The auditors use it to cross-check bookkeeping
// held outside the allocator.
func (a *Allocator) ForEachReservation(fn func(r *Reservation)) {
	for _, r := range a.reservations {
		fn(r)
	}
}

// AllocReservedPage claims one base page inside a reservation. The
// frame must lie inside the reserved region and be unclaimed.
func (a *Allocator) AllocReservedPage(hugeIndex, frame uint64) error {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return ErrNotReserved
	}
	idx := int64(frame) - int64(r.Start())
	if idx < 0 || idx >= mem.PagesPerHuge {
		return fmt.Errorf("%w: frame %#x outside reservation %d", ErrBadArgument, frame, hugeIndex)
	}
	if r.allocated[idx] {
		return ErrNotFree
	}
	r.allocated[idx] = true
	r.nAllocated++
	return nil
}

// ConsumeReservationHuge converts the whole reservation into a regular
// huge-page allocation: all 512 pages become allocated and the
// reservation is dissolved. Fails if any page was already individually
// claimed (the caller should then finish claiming pages instead).
func (a *Allocator) ConsumeReservationHuge(hugeIndex uint64) error {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return ErrNotReserved
	}
	if r.nAllocated != 0 {
		return fmt.Errorf("%w: reservation %d partially claimed", ErrBadArgument, hugeIndex)
	}
	delete(a.reservations, hugeIndex)
	return nil
}

// FinishReservation dissolves a reservation whose pages were claimed
// individually: claimed pages stay allocated, unclaimed pages return to
// the free lists. Returns the number of pages that were claimed.
func (a *Allocator) FinishReservation(hugeIndex uint64) (int, error) {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return 0, ErrNotReserved
	}
	delete(a.reservations, hugeIndex)
	// Free unclaimed pages, coalescing runs to limit churn.
	start := r.Start()
	i := 0
	for i < mem.PagesPerHuge {
		if r.allocated[i] {
			i++
			continue
		}
		a.Free(start+uint64(i), 0)
		i++
	}
	return r.nAllocated, nil
}

// --- Fragmentation metrics ---

// FMFI returns the free memory fragmentation index at the given order:
// the fraction of free memory that is unusable for an allocation of
// that order. 0 means all free memory sits in blocks >= order;
// values approaching 1 mean free memory is shattered. Returns 1 when
// no memory is free.
func (a *Allocator) FMFI(order int) float64 {
	if a.freePages == 0 {
		return 1
	}
	var usable uint64
	for o := order; o <= MaxOrder; o++ {
		usable += a.counts[o] << uint(o)
	}
	return 1 - float64(usable)/float64(a.freePages)
}

// LargestFreeOrder returns the highest order with at least one free
// block, or -1 when nothing is free.
func (a *Allocator) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if a.counts[o] > 0 {
			return o
		}
	}
	return -1
}

// FreeHugeCandidates returns how many distinct, free, huge-aligned
// 2 MiB regions exist right now (free blocks of order >= HugeOrder,
// counted in huge-page units).
func (a *Allocator) FreeHugeCandidates() uint64 {
	var n uint64
	for o := mem.HugeOrder; o <= MaxOrder; o++ {
		n += a.counts[o] << uint(o-mem.HugeOrder)
	}
	return n
}

// FreeRegions appends to dst the maximal runs of free frames that are
// at least minPages long, in address order, and returns the extended
// slice; it stops after max runs (max <= 0 means no limit). Reserved
// regions are not free. The Gemini contiguity list is built from it,
// and CA-paging's anchor search reads the first few runs.
//
// The query reads the free-frame bitmap a word at a time, finding run
// boundaries with TrailingZeros64, and allocates nothing once dst has
// room. When minPages >= 63 it also skips every word without a fully
// free 32-frame half: a run of 63 frames or more contains such a half
// (see runStart), so on fragmented memory only the words holding
// useful runs are looked at closely.
func (a *Allocator) FreeRegions(dst []mem.Region, minPages uint64, max int) []mem.Region {
	n := 0
	for pos := uint64(0); pos < a.totalPages; {
		var s uint64
		var ok bool
		if minPages >= 63 {
			if s, ok = a.nextFreeHalf(pos); ok {
				s = a.runStart(s)
			}
		} else {
			s, ok = a.nextFree(pos)
		}
		if !ok {
			break
		}
		e := a.runEnd(s)
		if e-s >= minPages {
			dst = append(dst, mem.Region{Start: s, Pages: e - s})
			if n++; n == max {
				break
			}
		}
		pos = e
	}
	return dst
}

// nextFree returns the first free frame at or after pos, or false.
func (a *Allocator) nextFree(pos uint64) (uint64, bool) {
	w := pos >> 6
	free := a.frames[w] & (^uint64(0) << (pos & 63))
	for free == 0 {
		if w++; w == uint64(len(a.frames)) {
			return 0, false
		}
		free = a.frames[w]
	}
	return w<<6 + uint64(bits.TrailingZeros64(free)), true
}

// nextFreeHalf returns the first frame of the first fully free,
// 32-aligned half-word at or after pos, or false. Words without one
// cost two compares each.
func (a *Allocator) nextFreeHalf(pos uint64) (uint64, bool) {
	w := pos >> 6
	free := a.frames[w] & (^uint64(0) << (pos & 63))
	for {
		if uint32(free) == math.MaxUint32 {
			return w << 6, true
		}
		if free>>32 == math.MaxUint32 {
			return w<<6 + 32, true
		}
		if w++; w == uint64(len(a.frames)) {
			return 0, false
		}
		free = a.frames[w]
	}
}

// runStart returns the first frame of the free run that contains the
// free frame f. FreeRegions calls it from the first fully free
// 32-frame half at or after the end of the last run it looked at; a
// run reaching back past that half's word would have put a fully free
// half in the previous word, so the search reads at most one word to
// the left.
func (a *Allocator) runStart(f uint64) uint64 {
	w := f >> 6
	// The allocated frames below f in its word, moved to the top.
	used := ^a.frames[w] << (64 - f&63)
	for used == 0 {
		if w == 0 {
			return 0
		}
		w--
		f = (w + 1) << 6
		used = ^a.frames[w]
	}
	return f - uint64(bits.LeadingZeros64(used))
}

// runEnd returns the first frame at or after the free frame f that is
// not free, or totalPages. Padding bits are clear, so a run never
// extends past the last frame.
func (a *Allocator) runEnd(f uint64) uint64 {
	w := f >> 6
	if used := ^a.frames[w] >> (f & 63); used != 0 {
		return f + uint64(bits.TrailingZeros64(used))
	}
	for w++; w < uint64(len(a.frames)); w++ {
		if used := ^a.frames[w]; used != 0 {
			return w<<6 + uint64(bits.TrailingZeros64(used))
		}
	}
	return a.totalPages
}

// auditLayer labels buddy violations in audit reports.
const auditLayer = "buddy"

// CheckInvariants recomputes the allocator's invariants from scratch
// and reports every discrepancy against the incremental bookkeeping:
//
//   - free blocks are order-aligned, in bounds, and disjoint;
//   - per-order counts and freePages match a recount of the free map
//     (block conservation: free + allocated + reserved == total, with
//     allocated implicitly total minus the other two);
//   - each order's free index is exact (see checkIndex), so targeted
//     and untargeted allocation agree on what is free;
//   - the free-frame bitmap is exact (see checkFrames), so FreeRegions
//     and FrameFree agree with the free blocks;
//   - reserved regions are wholly withdrawn from the free lists, and
//     each reservation's claim bitmap matches its claim counter;
//   - FMFI computed from the incremental counters matches an FMFI
//     recomputed from the free map alone.
func (a *Allocator) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	var sum uint64
	var counts [NumOrders]uint64
	type span struct{ start, end uint64 }
	var spans []span
	for s := range a.freeOrd {
		if a.freeOrd[s] < 0 {
			continue
		}
		start, o := uint64(s), uint8(a.freeOrd[s])
		size := uint64(1) << o
		if int(o) > MaxOrder {
			vs = append(vs, audit.Violationf(auditLayer, "block-order", start,
				"free block has order %d > MaxOrder %d", o, MaxOrder))
			continue
		}
		if start%size != 0 {
			vs = append(vs, audit.Violationf(auditLayer, "block-alignment", start,
				"free block of order %d not aligned to %d frames", o, size))
		}
		if start+size > a.totalPages {
			vs = append(vs, audit.Violationf(auditLayer, "block-bounds", start,
				"free block of order %d ends at %#x past total %#x",
				o, start+size, a.totalPages))
		}
		sum += size
		counts[o]++
		spans = append(spans, span{start, start + size})
	}
	if sum != a.freePages {
		vs = append(vs, audit.Violationf(auditLayer, "conservation", 0,
			"freePages counter %d != %d frames summed over free blocks",
			a.freePages, sum))
	}
	for o := range counts {
		if counts[o] != a.counts[o] {
			vs = append(vs, audit.Violationf(auditLayer, "free-count", uint64(o),
				"order %d holds %d free blocks but counter says %d",
				o, counts[o], a.counts[o]))
		}
	}
	// Disjointness of free blocks (spans come out of the array sweep
	// already sorted by start).
	var prevEnd uint64
	for _, sp := range spans {
		if sp.start < prevEnd {
			vs = append(vs, audit.Violationf(auditLayer, "block-overlap", sp.start,
				"free block overlaps the preceding block ending at %#x", prevEnd))
		}
		prevEnd = sp.end
	}
	vs = append(vs, a.checkIndex()...)
	vs = append(vs, a.checkFrames()...)
	// Reservations: in bounds, withdrawn from the free lists, claim
	// bitmap consistent with the claim counter.
	for hi, r := range a.reservations {
		if r.HugeIndex != hi {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-key", hi,
				"reservation stored under index %d records index %d", hi, r.HugeIndex))
		}
		start := r.Start()
		if start+mem.PagesPerHuge > a.totalPages {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-bounds", start,
				"reservation %d extends past total %#x", hi, a.totalPages))
			continue
		}
		n := 0
		for i := 0; i < mem.PagesPerHuge; i++ {
			if r.allocated[i] {
				n++
			}
		}
		if n != r.nAllocated {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-claims", start,
				"reservation %d claim bitmap holds %d pages, counter says %d",
				hi, n, r.nAllocated))
		}
		for f := start; f < start+mem.PagesPerHuge; f++ {
			if a.FrameFree(f) {
				vs = append(vs, audit.Violationf(auditLayer, "reservation-free-overlap", f,
					"frame inside reservation %d is also on the free lists (double-reserve)", hi))
				break
			}
		}
	}
	// FMFI recomputation: derive the index at HugeOrder from the free
	// map alone and compare with the incremental-counter version. A
	// drift here means a future fast path desynced counts from blocks.
	if a.freePages > 0 {
		var usable uint64
		for _, o := range a.freeOrd {
			if int(o) >= mem.HugeOrder {
				usable += uint64(1) << o
			}
		}
		recomputed := 1 - float64(usable)/float64(sum)
		tracked := a.FMFI(mem.HugeOrder)
		diff := recomputed - tracked
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			vs = append(vs, audit.Violationf(auditLayer, "fmfi-recompute", 0,
				"FMFI from counters %.9f != FMFI from free map %.9f", tracked, recomputed))
		}
	}
	return vs
}

// checkIndex reports every "free-index" discrepancy between the
// per-order bitmaps and the free-order array: a block bit is set
// exactly when a free block of that order starts there (padding bits
// past the last possible start included), a summary bit is set
// exactly when its word is nonzero (padding bits past the last word
// included), and the hint does not pass the first nonzero summary
// word.
func (a *Allocator) checkIndex() []audit.Violation {
	var vs []audit.Violation
	for o := range a.index {
		x := &a.index[o]
		for w, word := range x.words {
			var want uint64
			for bit := 0; bit < 64; bit++ {
				if s := uint64(w<<6+bit) << o; s < a.totalPages && a.freeOrd[s] == int8(o) {
					want |= 1 << bit
				}
			}
			if word != want {
				vs = append(vs, audit.Violationf(auditLayer, "free-index", uint64(w)<<(6+o),
					"order-%d index word %d is %#x but the free starts it covers are %#x", o, w, word, want))
			}
		}
		first := len(x.summary)
		for si, sw := range x.summary {
			var want uint64
			for bit := 0; bit < 64 && si<<6+bit < len(x.words); bit++ {
				if x.words[si<<6+bit] != 0 {
					want |= 1 << bit
				}
			}
			if sw != want {
				vs = append(vs, audit.Violationf(auditLayer, "free-index", uint64(si)<<(12+o),
					"order-%d summary word %d is %#x but its nonzero words are %#x", o, si, sw, want))
			}
			if sw != 0 && first == len(x.summary) {
				first = si
			}
		}
		if x.hint > first {
			vs = append(vs, audit.Violationf(auditLayer, "free-index", uint64(o),
				"order-%d hint %d passes the first nonzero summary word %d", o, x.hint, first))
		}
	}
	return vs
}

// checkFrames reports every "free-frames" discrepancy between the
// free-frame bitmap and a sweep of the free-order array: a bit is set
// exactly when its frame lies inside a free block, and the padding
// bits past totalPages are clear. It reports the lowest wrong bit of
// each wrong word.
func (a *Allocator) checkFrames() []audit.Violation {
	var vs []audit.Violation
	want := make([]uint64, len(a.frames))
	for s, o := range a.freeOrd {
		if o < 0 || int(o) > MaxOrder {
			continue
		}
		end := min(uint64(s)+1<<o, a.totalPages)
		for f := uint64(s); f < end; f++ {
			want[f>>6] |= 1 << (f & 63)
		}
	}
	for w, word := range a.frames {
		diff := word ^ want[w]
		if diff == 0 {
			continue
		}
		f := uint64(w)<<6 + uint64(bits.TrailingZeros64(diff))
		switch {
		case f >= a.totalPages:
			vs = append(vs, audit.Violationf(auditLayer, "free-frames", f,
				"padding bit for frame %#x past total %#x is set", f, a.totalPages))
		case word&(1<<(f&63)) != 0:
			vs = append(vs, audit.Violationf(auditLayer, "free-frames", f,
				"bitmap marks frame %#x free but no free block holds it", f))
		default:
			vs = append(vs, audit.Violationf(auditLayer, "free-frames", f,
				"frame %#x lies in a free block but its bitmap bit is clear", f))
		}
	}
	return vs
}
