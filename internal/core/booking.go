package core

// This file implements HB, Gemini's huge booking (§4): type-1
// mis-aligned host huge regions are temporarily reserved so they can
// still become well-aligned cheaply, with adaptive timeouts
// (Algorithm 1, see timeout.go) and huge preallocation (§4.2) when a
// booked region is mostly claimed and fragmentation is low.

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// booking tracks one huge-page-sized guest physical region held for
// alignment: either a buddy reservation (HB proper) or an owned block
// recycled from the huge bucket.
type booking struct {
	hugeIdx    uint64
	owned      bool // frames pre-owned (bucket origin)
	claimed    [mem.PagesPerHuge]bool
	nClaimed   int
	expires    uint64
	vaBase     uint64 // guest virtual huge region filling the booking
	anchored   bool
	prealloced bool
}

// takeUnanchoredBooking returns the lowest unanchored booked region.
func (p *GuestPolicy) takeUnanchoredBooking() (uint64, bool) {
	var best uint64
	found := false
	for hi, bk := range p.bookings {
		if bk.anchored || bk.owned {
			continue
		}
		if !found || hi < best {
			best = hi
			found = true
		}
	}
	return best, found
}

// bookSpan reserves the huge regions of a freshly anchored span
// (booking "to fit the entire VMA", §5), within budget limits.
func (p *GuestPolicy) bookSpan(L *machine.Layer, startFrame, pages uint64) {
	if p.g.cfg.DisableBooking {
		return
	}
	for f := startFrame; f+mem.PagesPerHuge <= startFrame+pages; f += mem.PagesPerHuge {
		if len(p.bookings) >= p.g.cfg.MaxBookings {
			return
		}
		hi := f / mem.PagesPerHuge
		if _, ok := p.bookings[hi]; ok {
			continue
		}
		if _, err := L.Buddy.Reserve(hi); err != nil {
			continue
		}
		p.bookings[hi] = &booking{hugeIdx: hi, expires: p.now + p.ctl.Timeout()}
		p.Stats.BookingsCreated++
		if L.Trace != nil {
			L.Trace.Event(trace.EvBookingOpen, 0, hi*mem.PagesPerHuge, mem.HugeOrder, 0, "span")
		}
	}
}

// serviceBookings completes, preallocates, or expires bookings.
func (p *GuestPolicy) serviceBookings(L *machine.Layer) {
	if len(p.bookings) == 0 {
		return
	}
	for _, hi := range p.bookedRegions() {
		bk := p.bookings[hi]
		if bk.nClaimed == mem.PagesPerHuge {
			p.finishBooking(L, bk, true)
			continue
		}
		// Huge preallocation (§4.2): at least PreallocThreshold pages
		// claimed and low fragmentation.
		if bk.anchored && !bk.prealloced &&
			bk.nClaimed >= p.g.cfg.PreallocThreshold &&
			L.Buddy.FMFI(mem.HugeOrder) <= p.g.cfg.PreallocMaxFMFI {
			p.prealloc(L, bk)
			if bk.nClaimed == mem.PagesPerHuge {
				p.finishBooking(L, bk, true)
				continue
			}
		}
		if p.now >= bk.expires {
			if L.Trace != nil {
				L.Trace.Event(trace.EvBookingExpire, bk.vaBase, bk.hugeIdx*mem.PagesPerHuge,
					mem.HugeOrder, uint64(bk.nClaimed), "timeout")
			}
			p.finishBooking(L, bk, false)
			p.Stats.BookingsExpired++
		}
	}
}

// bookedRegions returns the booked huge indices in ascending order, so
// every pass over the bookings touches the allocator in a
// deterministic order.
func (p *GuestPolicy) bookedRegions() []uint64 {
	keys := make([]uint64, 0, len(p.bookings))
	for hi := range p.bookings {
		keys = append(keys, hi)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// releaseBookings is the guest's last resort before an out-of-memory
// panic: it dissolves bookings, lowest region first, until at least
// need pages have returned to the allocator, and reports whether any
// did. Bookings hold up to a huge region of reserved-but-unclaimed
// frames each, so under sustained balloon pressure they can pin the
// last free guest memory; giving them up trades a future well-aligned
// huge page for the demand fault at hand.
func (p *GuestPolicy) releaseBookings(L *machine.Layer, need uint64) bool {
	free0 := L.Buddy.FreePages()
	for _, hi := range p.bookedRegions() {
		if L.Buddy.FreePages()-free0 >= need {
			break
		}
		bk := p.bookings[hi]
		if L.Trace != nil {
			L.Trace.Event(trace.EvBookingExpire, bk.vaBase, hi*mem.PagesPerHuge,
				mem.HugeOrder, uint64(bk.nClaimed), "oom")
		}
		p.finishBooking(L, bk, false)
	}
	return L.Buddy.FreePages() > free0
}

// finishBooking dissolves a booking. When complete is true the region
// is fully claimed and the anchored guest virtual region is collapsed
// in place, forming a well-aligned huge page when the region was a
// (mis-aligned) host huge page.
func (p *GuestPolicy) finishBooking(L *machine.Layer, bk *booking, complete bool) {
	delete(p.bookings, bk.hugeIdx)
	if bk.owned {
		// Return unclaimed frames of the bucket-origin block.
		start := bk.hugeIdx * mem.PagesPerHuge
		for i := 0; i < mem.PagesPerHuge; i++ {
			if !bk.claimed[i] {
				L.Buddy.Free(start+uint64(i), 0)
			}
		}
	} else {
		if _, err := L.Buddy.FinishReservation(bk.hugeIdx); err != nil {
			panic("core: booking lost its reservation: " + err.Error())
		}
	}
	if complete && bk.anchored {
		if L.PromoteInPlace(bk.vaBase) == nil {
			p.Stats.BookingsCompleted++
		}
	}
}

// prealloc maps the booking's unclaimed pages ahead of demand so the
// region can be promoted early (§4.2, "huge preallocation").
func (p *GuestPolicy) prealloc(L *machine.Layer, bk *booking) {
	bk.prealloced = true
	start := bk.hugeIdx * mem.PagesPerHuge
	for i := 0; i < mem.PagesPerHuge; i++ {
		if bk.claimed[i] {
			continue
		}
		va := bk.vaBase + uint64(i)*mem.PageSize
		if _, _, mapped := L.Table.Lookup(va); mapped {
			// The VA is taken by another descriptor's placement; the
			// region cannot complete.
			return
		}
		frame := start + uint64(i)
		if !bk.owned {
			if L.Buddy.AllocReservedPage(bk.hugeIdx, frame) != nil {
				return
			}
		}
		if err := L.Table.Map4K(va, frame); err != nil {
			panic("core: prealloc Map4K: " + err.Error())
		}
		bk.claimed[i] = true
		bk.nClaimed++
		L.Stats.BackgroundCycles += L.Costs.FaultBase
	}
	p.Stats.Preallocs++
}

// bookMisalignedHost books type-1 mis-aligned host huge regions so
// they stay free until the guest can form a matching huge page.
func (p *GuestPolicy) bookMisalignedHost(L *machine.Layer) {
	if p.g.cfg.DisableBooking || p.g.vm == nil {
		return
	}
	type1, _ := p.g.MisalignedHostRegions()
	budget := p.g.cfg.BookBudget
	for _, hi := range type1 {
		if budget == 0 || len(p.bookings) >= p.g.cfg.MaxBookings {
			return
		}
		if _, booked := p.bookings[hi]; booked || p.bucket.Contains(hi) {
			continue
		}
		if _, err := L.Buddy.Reserve(hi); err != nil {
			continue
		}
		p.bookings[hi] = &booking{hugeIdx: hi, expires: p.now + p.ctl.Timeout()}
		p.Stats.BookingsCreated++
		if L.Trace != nil {
			L.Trace.Event(trace.EvBookingOpen, 0, hi*mem.PagesPerHuge, mem.HugeOrder, 0, "type1")
		}
		budget--
	}
}
