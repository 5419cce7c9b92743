package machine

import (
	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// VM is one virtual machine: a guest with its own physical memory and
// process page table, an EPT over the shared host allocator, and a TLB
// (the hardware TLB as seen by this VM's vCPUs).
type VM struct {
	// ID is the VM identifier used by the host-side scanner.
	ID int
	// Guest is the guest layer: process page table (GVA -> GFN) over
	// the guest physical allocator.
	Guest *Layer
	// EPT is the host layer for this VM: the VM page table
	// (GPA -> HFN) over host physical memory.
	EPT *Layer
	// TLB is the translation cache the VM's accesses exercise.
	TLB *tlb.TLB
	// Balloon, when non-nil, is the guest's balloon driver; the swap
	// tier asks it to surrender guest memory before resorting to
	// swap-out (swap.go). Nil unless a pressure run installs one.
	Balloon BalloonDriver

	guestPages uint64
	costs      CostModel
	// mode is the VM's translation mode; radix caches the common case
	// so the default nested-walk hot path stays free of interface
	// dispatch (see translation.go).
	mode  TranslationMode
	radix bool
	// wc is the software walk cache accelerating AccessN; see
	// walkcache.go. A zero wc (nil entries) means disabled.
	wc walkCache
	// bat stages resolved translations for AccessN's two-pass loop.
	bat accessBatch
	// one is Access's single-address argument to AccessN.
	one [1]uint64
	// wcArena is the pooled backing store of wc.entries.
	wcArena *wcArena
}

// GuestPages returns the VM's guest physical memory size in frames.
func (vm *VM) GuestPages() uint64 { return vm.guestPages }

// Machine is the simulated server: host physical memory plus the VMs
// consolidated on it.
type Machine struct {
	// HostBuddy allocates host physical frames, shared by all VMs.
	HostBuddy *buddy.Allocator
	// VMs lists the machines' guests.
	VMs []*VM
	// Costs is the machine-wide cost model.
	Costs CostModel
	// Ticks counts daemon quanta elapsed.
	Ticks uint64
	// Rec, when non-nil, is the flight recorder tracing this machine.
	// Tick advances its simulated clock so every event and sample is
	// stamped with the tick it happened on.
	Rec *trace.Recorder

	// nextID issues VM identifiers. It only grows, so an ID is never
	// reused after RemoveVM — audits and traces that key state by
	// vm.ID cannot conflate a departed VM with a later arrival.
	nextID int
	// swap is the armed pressure machinery; nil until EnableSwap
	// (swap.go), and every hook it adds to the tick and fault paths is
	// nil-or-len-guarded so the disabled cost is zero.
	swap *swapTier
}

// NewMachine creates a host with the given amount of physical memory.
func NewMachine(hostPages uint64, costs CostModel) *Machine {
	return &Machine{
		HostBuddy: buddy.New(hostPages),
		Costs:     costs,
	}
}

// VMSetup bundles everything needed to instantiate one VM, so N-VM
// engines can build a machine from a slice of setups without
// positional-argument plumbing.
type VMSetup struct {
	// GuestPages is the guest physical memory size in frames.
	GuestPages uint64
	// GuestPolicy and HostPolicy manage the guest and EPT layers.
	GuestPolicy Policy
	HostPolicy  Policy
	// TLB configures the VM's translation cache.
	TLB tlb.Config
	// Translation selects the VM's translation mode; nil selects the
	// default nested radix walk.
	Translation TranslationMode
}

// AddVMSetup creates a VM from a setup bundle. Equivalent to AddVM
// followed by SetTranslation when a mode is given.
func (m *Machine) AddVMSetup(s VMSetup) *VM {
	vm := m.AddVM(s.GuestPages, s.GuestPolicy, s.HostPolicy, s.TLB)
	if s.Translation != nil {
		vm.SetTranslation(s.Translation)
	}
	return vm
}

// AddVM creates a VM with guestPages of guest physical memory, the
// given per-layer policies, and a TLB with the given configuration.
func (m *Machine) AddVM(guestPages uint64, guestPolicy, hostPolicy Policy, tcfg tlb.Config) *VM {
	vm := &VM{
		ID:         m.nextID,
		TLB:        tlb.New(tcfg),
		guestPages: guestPages,
		costs:      m.Costs,
	}
	guestSpace := NewAddressSpace(64 * mem.HugeSize)
	vm.Guest = NewLayer("guest", buddy.New(guestPages), guestSpace, guestPolicy, m.Costs)
	// The EPT's input space is guest physical memory: one VMA
	// covering [0, guestPages).
	eptSpace := NewAddressSpace(0)
	eptSpace.MMap(guestPages*mem.PageSize, 0)
	vm.EPT = NewLayer("ept", m.HostBuddy, eptSpace, hostPolicy, m.Costs)
	// Guest-layer mapping changes shoot down this VM's TLB entries by
	// virtual region. (EPT-layer changes leave stale-but-correct
	// base-grain entries to age out, as discussed in the TLB package.)
	vm.Guest.FlushRegion = vm.TLB.FlushHugeRegion
	vm.mode, vm.radix = RadixNested{}, true
	vm.bat = accessBatch{
		gpa:  make([]uint64, accessBatchChunk),
		si:   make([]uint32, accessBatchChunk),
		meta: make([]uint8, accessBatchChunk),
	}
	vm.wcInit()
	m.nextID++
	m.VMs = append(m.VMs, vm)
	if m.swap != nil {
		m.armDirectReclaim(vm)
	}
	return vm
}

// SetTranslation installs the VM's translation mode and arms its
// address-space growth hook. Call before the guest maps anything;
// installed TLB entries and cached walks are not migrated between
// modes.
func (vm *VM) SetTranslation(mode TranslationMode) {
	_, isRadix := mode.(RadixNested)
	vm.mode, vm.radix = mode, isRadix
	vm.armTranslation()
}

// Translation returns the VM's translation mode.
func (vm *VM) Translation() TranslationMode { return vm.mode }

// armTranslation points the guest address space's growth hook at the
// mode's resize cost. Radix VMs keep a nil hook (free growth, and no
// closure on the MMap path). Re-run whenever Guest.Space is replaced.
func (vm *VM) armTranslation() {
	if vm.radix {
		return
	}
	vm.Guest.Space.OnMMap = func(v *VMA) {
		vm.Guest.AddStall(vm.mode.VMAGrowCycles(vm.costs, v.Pages()))
	}
}

// RemoveVM tears the VM down and returns its host frames to the shared
// buddy: every EPT VMA is unmapped (so huge and base backings free back
// to the host allocator), the walk-cache arena returns to the pool, and
// the VM leaves the machine's VM list. Guest-layer state needs no
// unwinding — the guest buddy is private to the VM and dies with it.
// Returns the number of host base pages freed. The VM must belong to
// this machine; removing an unknown VM panics.
func (m *Machine) RemoveVM(vm *VM) uint64 {
	idx := -1
	for i, v := range m.VMs {
		if v == vm {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("machine: RemoveVM of VM not on this machine")
	}
	freed := vm.EPT.MappedPages()
	for _, v := range append([]*VMA(nil), vm.EPT.Space.VMAs()...) {
		vm.EPT.UnmapVMA(v)
	}
	vm.wcRelease()
	m.VMs = append(m.VMs[:idx], m.VMs[idx+1:]...)
	return freed
}

// AbsorbMigration charges the cost of receiving a live-migrated VM:
// pages base pages copied in from the source host, booked against this
// VM's EPT layer as migration traffic (Stats.MigratedPages) and
// background copy cycles, exactly as intra-host page migration is
// booked. The fleet layer calls this on the destination replica after
// RemoveVM has released the source replica's frames, so a migration
// conserves pages across host accounting.
func (vm *VM) AbsorbMigration(pages uint64) {
	vm.EPT.Stats.MigratedPages += pages
	vm.EPT.Stats.BackgroundCycles += pages * vm.costs.CopyPage
}

// Access performs one guest memory access at gva, faulting in both
// layers as needed, and returns the cycles consumed (faults, page
// walk or TLB hit, and any pending shootdown stalls). It is AccessN
// over the VM's one-element staging array, so it shares AccessN's walk
// cache path and allocates nothing.
func (vm *VM) Access(gva uint64) uint64 {
	vm.one[0] = gva
	return vm.AccessN(vm.one[:])
}

// accessBatchChunk bounds how many pre-resolved translations AccessN
// stages at once; it also sizes the VM's reusable staging buffers
// (~13 KiB).
const accessBatchChunk = 1024

// accessBatch is the per-VM staging area for AccessN's two-pass loop:
// pass one resolves each address through the walk cache into these
// parallel slices, pass two charges them to the TLB. Allocated in
// AddVM.
type accessBatch struct {
	gpa  []uint64
	si   []uint32
	meta []uint8 // tlb.PackKinds(eff, gKind, hKind), cached in the walk-cache entry
}

// AccessN performs one access per address, in order, and returns the
// total cycle cost. It is the only access path: Access and the
// workload layer's StepOne/StepN all come here. The simulated work
// (fault decisions, heat bumps, PTE marks, TLB updates, stall charges)
// is exactly that of accessUncached per address; the walk cache only
// changes wall time, in two ways. First, the revalidation check,
// epoch, and entry-array pointer are hoisted out of the loop and
// refreshed after any uncached access (the only point table versions
// can move). Second, each run of walk-cache hits is split into two
// passes, for every translation mode: pass one does the per-address
// bookkeeping (heat, accessed bits, stall draining) and stages the
// resolved translation, pass two charges the staged run to the TLB
// (chargeStaged). Heat/PTE state and TLB state are disjoint and
// nothing reads either until the run is charged, so the split leaves
// every final state and cycle count identical to the interleaved
// order; a walk-cache miss charges the staged run first, keeping the
// uncached access's TLB view exactly sequential. Hit-vs-miss in the
// software walk cache never changes simulated cycles (§7.1's
// observer-effect invariant), so the hoist needs no exactness
// argument beyond revalidate-after-miss.
func (vm *VM) AccessN(gvas []uint64) uint64 {
	var total uint64
	if vm.wc.entries == nil {
		for _, gva := range gvas {
			total += vm.accessUncached(gva)
		}
		return total
	}
	vm.wcRevalidate()
	entries := vm.wc.entries
	epoch := vm.wc.epoch
	i := 0
	for i < len(gvas) {
		// Pass one: walk-cache bookkeeping for a run of cached hits.
		start, n := i, 0
		for i < len(gvas) && n < accessBatchChunk {
			gva := gvas[i]
			ent := &entries[(gva>>mem.PageShift)&(walkCacheSize-1)]
			if ent.epoch != epoch || ent.tag != gva>>mem.PageShift {
				break
			}
			// Heat indices are derived, not cached: the guest index is
			// gva's 2 MiB region and the EPT index is gpa's, where
			// gpa >> HugeShift == gfn >> (HugeShift - PageShift).
			vm.Guest.heatBump(gva >> mem.HugeShift)
			vm.EPT.heatBump(ent.gfn >> (mem.HugeShift - mem.PageShift))
			ent.gRef.Mark()
			ent.eRef.Mark()
			vm.bat.gpa[n] = ent.gfn*mem.PageSize + (gva & (mem.PageSize - 1))
			vm.bat.si[n] = ent.tlbSet
			vm.bat.meta[n] = ent.meta
			total += vm.Guest.TakeStallQuantum() + vm.EPT.TakeStallQuantum()
			n++
			i++
		}
		// Pass two: the staged run through the TLB.
		if n > 0 {
			total += vm.chargeStaged(gvas[start : start+n])
		}
		if n == accessBatchChunk || i >= len(gvas) {
			continue
		}
		// Walk-cache miss: the staged run is charged, so the uncached
		// access sees the TLB exactly as the sequential order would.
		// wcFill revalidates before it resolves, so its epoch is
		// current once it returns.
		gva := gvas[i]
		total += vm.accessUncached(gva)
		vm.wcFill(gva)
		epoch = vm.wc.epoch
		i++
	}
	return total
}

// chargeStaged charges the TLB for the first len(gvas) staged
// translations and returns their cycles. Radix VMs run the batch
// kernel; other modes charge each access through mode.Access with the
// kinds unpacked from the staged meta byte, in the same order.
func (vm *VM) chargeStaged(gvas []uint64) uint64 {
	n := len(gvas)
	if vm.radix {
		return vm.TLB.AccessNestedBatch(gvas, vm.bat.gpa[:n], vm.bat.si[:n], vm.bat.meta[:n])
	}
	var total uint64
	for j, gva := range gvas {
		m := vm.bat.meta[j]
		eff, gKind, hKind := mem.PageSizeKind(m&3), mem.PageSizeKind(m>>2&3), mem.PageSizeKind(m>>4&3)
		total += vm.mode.Access(vm.TLB, gva, eff, gKind, hKind, vm.bat.gpa[j]).Cycles
	}
	return total
}

// accessUncached is the reference access path: demand-fault both
// layers, walk both tables, and charge the TLB access. The walk cache
// replays precisely this sequence of simulated work on a hit.
func (vm *VM) accessUncached(gva uint64) uint64 {
	var cycles uint64
	c, _ := vm.Guest.EnsureMapped(gva)
	cycles += c
	gfn, gKind, ok := vm.Guest.Table.Lookup(gva)
	if !ok {
		panic("machine: guest unmapped after fault")
	}
	gpa := gfn*mem.PageSize + (gva & (mem.PageSize - 1))
	c, _ = vm.EPT.EnsureMapped(gpa)
	cycles += c
	_, hKind, ok := vm.EPT.Table.Lookup(gpa)
	if !ok {
		panic("machine: EPT unmapped after fault")
	}
	vm.Guest.RecordAccess(gva)
	vm.EPT.RecordAccess(gpa)
	vm.Guest.Table.MarkAccessed(gva)
	vm.EPT.Table.MarkAccessed(gpa)

	// The mode's entry-kind rule (for radix, §2.2's: a 2 MiB TLB entry
	// requires huge mappings at both layers) picks what the TLB may
	// install.
	eff := vm.mode.EffectiveKind(gKind, hKind)
	cycles += vm.mode.Access(vm.TLB, gva, eff, gKind, hKind, gpa).Cycles
	cycles += vm.Guest.TakeStallQuantum() + vm.EPT.TakeStallQuantum()
	return cycles
}

// Touch maps the page containing gva in both layers without charging
// an access (used to pre-populate state in tests and workload setup).
func (vm *VM) Touch(gva uint64) {
	vm.Guest.EnsureMapped(gva)
	gfn, _, _ := vm.Guest.Table.Lookup(gva)
	vm.EPT.EnsureMapped(gfn * mem.PageSize)
}

// ReleaseCaches returns every VM's walk-cache arena to the shared
// pool. Call it when a machine's measured work is done (the sim
// engines do, once per run): sweeps that build machines back to back
// then reuse the arenas instead of growing the heap by one entry
// array per VM. The machine stays fully usable afterwards — accesses
// just take the uncached reference path, with identical results.
func (m *Machine) ReleaseCaches() {
	for _, vm := range m.VMs {
		vm.wcRelease()
	}
}

// CompactionLowWatermark is the free-block level below which each
// layer's kcompactd quantum runs during Tick.
const CompactionLowWatermark = 8

// Tick runs one background quantum: kcompactd keeps a minimal reserve
// of order-9 blocks at each layer (as Linux does for every system
// under test), then both layers' coalescing daemons run and access
// heat decays. When the swap tier is armed (EnableSwap), its kswapd
// quantum runs last, after every VM's daemons have had their turn at
// the allocators.
func (m *Machine) Tick() {
	m.Ticks++
	if m.Rec != nil {
		m.Rec.SetNow(m.Ticks)
	}
	for _, vm := range m.VMs {
		vm.Guest.RunCompaction(CompactionLowWatermark, 64)
		vm.EPT.RunCompaction(CompactionLowWatermark, 64)
		reclaimTick(vm.Guest)
		reclaimTick(vm.EPT)
		vm.Guest.Policy.Tick(vm.Guest)
		vm.EPT.Policy.Tick(vm.EPT)
		vm.Guest.DecayHeat()
		vm.EPT.DecayHeat()
	}
	m.swapTick()
}

// reclaimTick runs the layer's memory-pressure reclaim quantum: when
// free memory drops under 2% of the layer's total, cold huge mappings
// are demoted (and, at the EPT layer, their never-accessed bloat is
// dropped), with the policy's DemotionFilter consulted.
func reclaimTick(L *Layer) {
	low := L.Buddy.TotalPages() / 50
	var keep func(uint64) bool
	if f, ok := L.Policy.(DemotionFilter); ok {
		keep = func(va uint64) bool { return f.KeepHuge(L, va) }
	}
	L.ReclaimUnderPressure(low, 4, keep)
}

// reclaimIdle reports whether reclaimTick on this layer would be a
// no-op: free memory is at or above the 2% pressure watermark, so
// ReclaimUnderPressure returns before scanning. Shares the watermark
// formula with reclaimTick so IdleHorizon cannot drift from it.
func reclaimIdle(L *Layer) bool {
	return L.Buddy.FreePages() >= L.Buddy.TotalPages()/50
}

// TickDeadliner is implemented by coalescing policies whose Tick work
// is periodic: TickIdleHorizon reports how many upcoming Tick calls
// are guaranteed no-ops given the layer's current state (0 = the very
// next Tick may do work), and AdvanceIdle replays n such idle Ticks in
// closed form (typically just advancing the policy's tick counter).
// AdvanceIdle is only ever called with n <= the horizon just reported,
// with no faults or accesses in between.
//
// Policies that do unconditional per-tick work (Ranger's list sweeps,
// FHPM's queue pumps, GEMINI's EMA windows) either return 0 or simply
// don't implement the interface — both mean every tick runs densely.
// See DESIGN.md §7.4 for the full deadline model.
type TickDeadliner interface {
	TickIdleHorizon(L *Layer) int
	AdvanceIdle(L *Layer, n int)
}

// IdleHorizon reports how many upcoming Ticks are provably no-ops for
// every layer of every VM, capped at limit — the machine-level
// deadline query behind event-driven fast-forward. It returns 0 when
// any layer's compaction or pressure-reclaim quantum would run (those
// depend on allocator state, not a schedule, so they pin the machine
// to dense ticking while active) or when any policy does not expose a
// deadline. The query is read-only.
func (m *Machine) IdleHorizon(limit int) int {
	h := limit
	if !m.swapIdle() {
		return 0
	}
	for _, vm := range m.VMs {
		for _, L := range [2]*Layer{vm.Guest, vm.EPT} {
			if h <= 0 {
				return 0
			}
			if !L.compactionIdle(CompactionLowWatermark) || !reclaimIdle(L) {
				return 0
			}
			d, ok := L.Policy.(TickDeadliner)
			if !ok {
				return 0
			}
			if n := d.TickIdleHorizon(L); n < h {
				h = n
			}
		}
	}
	return h
}

// AdvanceTicks advances the tick clock by k provably-idle ticks in
// closed form: the clock and recorder observe the same tick numbers
// as k dense Tick calls, heat decays by k halvings, and each periodic
// policy's counter advances by k. Callers must only pass k <=
// IdleHorizon(k) with no intervening faults; under that contract the
// machine state afterwards is bit-identical to k Ticks
// (TestAdvanceTicksMatchesDense).
func (m *Machine) AdvanceTicks(k int) {
	if k <= 0 {
		return
	}
	m.Ticks += uint64(k)
	if m.Rec != nil {
		m.Rec.SetNow(m.Ticks)
	}
	for _, vm := range m.VMs {
		for _, L := range [2]*Layer{vm.Guest, vm.EPT} {
			if d, ok := L.Policy.(TickDeadliner); ok {
				d.AdvanceIdle(L, k)
			}
			L.DecayHeatN(k)
		}
	}
}

// AlignStats summarises huge-page alignment across the two layers of
// one VM.
type AlignStats struct {
	// GuestHuge is the number of huge mappings in the guest table.
	GuestHuge uint64
	// HostHuge is the number of huge mappings in the EPT.
	HostHuge uint64
	// Aligned is the number of well-aligned pairs: a guest huge page
	// whose GPA region the EPT also maps huge.
	Aligned uint64
}

// Rate returns the fraction of huge pages that are well-aligned:
// 2*Aligned / (GuestHuge + HostHuge). Zero when no huge pages exist.
func (s AlignStats) Rate() float64 {
	total := s.GuestHuge + s.HostHuge
	if total == 0 {
		return 0
	}
	return 2 * float64(s.Aligned) / float64(total)
}

// Alignment scans both layers' tables and reports alignment, the
// quantity Tables 1, 3 and 4 of the paper profile. Host huge pages are
// counted only when the guest currently maps memory onto their region:
// a stale EPT backing left over from a departed process translates no
// accesses, so it does not figure in the rate (the paper measures
// alignment over the pages workloads actually use).
func (vm *VM) Alignment() AlignStats {
	var s AlignStats
	used := make(map[uint64]bool)
	vm.Guest.Table.ScanAll(func(mp pagetable.Mapping) bool {
		if mp.Kind == mem.Huge {
			s.GuestHuge++
			gpa := mp.Frame * mem.PageSize
			if _, isHuge, _ := vm.EPT.Table.LookupHugeRegion(gpa); isHuge {
				s.Aligned++
			}
		}
		used[mp.Frame/mem.PagesPerHuge] = true
		return true
	})
	vm.EPT.Table.ScanHuge(func(mp pagetable.Mapping) bool {
		if used[mp.VA>>mem.HugeShift] {
			s.HostHuge++
		}
		return true
	})
	return s
}

// ResetGuestProcess tears down the guest process — unmapping every
// VMA and freeing its guest frames — and installs a fresh address
// space, modelling a workload finishing and a new one starting in the
// same (reused) VM. EPT state persists, as host memory given to a VM
// is not returned (§6.3). The TLB is flushed (context switch).
func (vm *VM) ResetGuestProcess() {
	for _, v := range append([]*VMA(nil), vm.Guest.Space.VMAs()...) {
		vm.Guest.UnmapVMA(v)
	}
	vm.Guest.Space = NewAddressSpace(64 * mem.HugeSize)
	vm.Guest.Table = pagetable.New()
	vm.armTranslation() // the fresh space needs the mode's growth hook
	vm.TLB.FlushAll()
}
