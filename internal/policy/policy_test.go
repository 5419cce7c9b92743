package policy

import (
	"math/rand"
	"testing"

	"repro/internal/buddy"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tlb"
)

const (
	guestPages = 64 * 1024  // 256 MiB
	hostPages  = 128 * 1024 // 512 MiB
)

func newVM(gp, hp machine.Policy) (*machine.Machine, *machine.VM) {
	m := machine.NewMachine(hostPages, machine.DefaultCosts())
	vm := m.AddVM(guestPages, gp, hp, tlb.DefaultConfig())
	return m, vm
}

// touchRegion faults in every page of n huge regions of the VMA.
func touchRegion(vm *machine.VM, v *machine.VMA, n int) {
	for r := 0; r < n; r++ {
		base := v.Start + uint64(r)*mem.HugeSize
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			vm.Access(base + i*mem.PageSize)
		}
	}
}

func TestBaseOnly(t *testing.T) {
	_, vm := newVM(BaseOnly{}, BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	touchRegion(vm, v, 1)
	for i := 0; i < 10; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() != 0 || vm.EPT.Table.Mapped2M() != 0 {
		t.Fatal("BaseOnly created huge mappings")
	}
	if BaseOnly.Name(BaseOnly{}) != "base-only" {
		t.Fatal("name")
	}
}

func TestHugeOnlyMisalignmentConfig(t *testing.T) {
	// Guest base-only, host huge-only: the Misalignment scenario.
	_, vm := newVM(BaseOnly{}, HugeOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	vm.Access(v.Start)
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("guest mapped huge")
	}
	if vm.EPT.Table.Mapped2M() != 1 {
		t.Fatalf("EPT huge mappings = %d", vm.EPT.Table.Mapped2M())
	}
	a := vm.Alignment()
	if a.Aligned != 0 || a.HostHuge != 1 {
		t.Fatalf("alignment = %+v", a)
	}
}

func TestTHPSyncHugeFault(t *testing.T) {
	_, vm := newVM(NewTHP(DefaultTHPParams()), BaseOnly{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	vm.Access(v.Start)
	if vm.Guest.Stats.HugeFaults != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	// Second region likewise; a partially mapped region is left alone.
	vm.Access(v.Start + mem.HugeSize)
	if vm.Guest.Table.Mapped2M() != 2 {
		t.Fatalf("Mapped2M = %d", vm.Guest.Table.Mapped2M())
	}
}

func TestTHPCompactionStallWhenFragmented(t *testing.T) {
	m, vm := newVM(NewTHP(DefaultTHPParams()), BaseOnly{})
	_ = m
	fr := frag.New(vm.Guest.Buddy, 1)
	fr.FragmentTo(0.999, 0.95)
	if vm.Guest.Buddy.FreeHugeCandidates() != 0 {
		t.Skip("fragmenter left huge blocks; cannot test stall path")
	}
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	c := vm.Access(v.Start)
	if vm.Guest.Stats.HugeFaults != 0 {
		t.Fatal("huge fault despite fragmentation")
	}
	if c < DefaultTHPParams().CompactCycles {
		t.Fatalf("no compaction stall charged: %d", c)
	}
}

func TestTHPKhugepagedCollapses(t *testing.T) {
	p := DefaultTHPParams()
	p.SyncHugeFault = false
	_, vm := newVM(NewTHP(p), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	vm.Access(v.Start) // one present page is enough (MinPresent=1)
	for i := 0; i < DefaultTHPParams().PromotePeriod*2 && vm.Guest.Table.Mapped2M() == 0; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() == 0 {
		t.Fatal("khugepaged never collapsed")
	}
	if vm.Guest.Stats.MigrationPromotions+vm.Guest.Stats.InPlacePromotions == 0 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestTHPPromoteBudgetRespected(t *testing.T) {
	p := DefaultTHPParams()
	p.SyncHugeFault = false
	p.PromoteBudget = 1
	_, vm := newVM(NewTHP(p), BaseOnly{})
	v := vm.Guest.Space.MMap(8*mem.HugeSize, 0)
	for r := 0; r < 8; r++ {
		vm.Access(v.Start + uint64(r)*mem.HugeSize)
	}
	for i := 0; i < p.PromotePeriod; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if got := vm.Guest.Table.Mapped2M(); got != 1 {
		t.Fatalf("promotions after one round = %d, want 1", got)
	}
}

func TestIngensThresholdGate(t *testing.T) {
	_, vm := newVM(NewIngens(DefaultIngensParams()), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	// Touch below threshold: no promotion.
	for i := uint64(0); i < 400; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	for i := 0; i < 5; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("Ingens promoted under-utilized region")
	}
	// Cross the threshold.
	for i := uint64(400); i < 470; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	for i := 0; i < 5 && vm.Guest.Table.Mapped2M() == 0; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("Ingens did not promote utilized region")
	}
	// No synchronous huge faults ever.
	if vm.Guest.Stats.HugeFaults != 0 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestHawkEyeHotFirst(t *testing.T) {
	p := DefaultHawkEyeParams()
	p.PromoteBudget = 1
	_, vm := newVM(NewHawkEye(p), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	// Region 0: utilized but cold-ish. Region 1: utilized and hot.
	touchRegion(vm, v, 2)
	hot := v.Start + mem.HugeSize
	for i := 0; i < 1000; i++ {
		vm.Access(hot + uint64(i%512)*mem.PageSize)
	}
	for i := 0; i < DefaultHawkEyeParams().PromotePeriod; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	_, isHuge, _ := vm.Guest.Table.LookupHugeRegion(hot)
	if !isHuge {
		t.Fatal("hot region not promoted first")
	}
	_, isHuge0, _ := vm.Guest.Table.LookupHugeRegion(v.Start)
	if isHuge0 {
		t.Fatal("cold region promoted despite budget 1")
	}
}

func TestHawkEyeDedup(t *testing.T) {
	_, vm := newVM(NewHawkEye(DefaultHawkEyeParams()), BaseOnly{})
	vm.Guest.ZeroFraction = 0.5
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for i := uint64(0); i < 100; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	// Let the region go cold, then tick.
	vm.Guest.DecayHeat()
	for vm.Guest.Heat(v.Start) > 0 {
		vm.Guest.DecayHeat()
	}
	for i := 0; i < DefaultHawkEyeParams().PromotePeriod*2; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Stats.DedupedPages == 0 {
		t.Fatal("no pages deduplicated")
	}
	// Re-access pays CoW refault.
	before := vm.Guest.Stats.CoWRefaults
	for i := uint64(0); i < 100; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	if vm.Guest.Stats.CoWRefaults == before {
		t.Fatal("no CoW refaults after dedup")
	}
}

func TestHawkEyeNoDedupWithoutZeroPages(t *testing.T) {
	_, vm := newVM(NewHawkEye(DefaultHawkEyeParams()), BaseOnly{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	for vm.Guest.Heat(v.Start) > 0 {
		vm.Guest.DecayHeat()
	}
	vm.Guest.Policy.Tick(vm.Guest)
	if vm.Guest.Stats.DedupedPages != 0 {
		t.Fatal("dedup ran with ZeroFraction 0")
	}
}

func TestCAPagingContiguity(t *testing.T) {
	_, vm := newVM(NewCAPaging(DefaultCAPagingParams()), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 3) // not huge-aligned start
	// Touch the first full huge region inside the VMA.
	base := (v.Start + mem.HugeSize - 1) &^ uint64(mem.HugeSize-1)
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		vm.Access(base + i*mem.PageSize)
	}
	info := vm.Guest.Table.InspectCollapse(base)
	if info.Present != mem.PagesPerHuge {
		t.Fatalf("present = %d", info.Present)
	}
	if !info.Contiguous {
		t.Fatal("CA-paging placement not contiguous/aligned")
	}
	// Background ticks promote in place, costing no migrations.
	for i := 0; i < DefaultCAPagingParams().PromotePeriod*2; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("no in-place promotion")
	}
	if vm.Guest.Stats.MigratedPages != 0 {
		t.Fatalf("CA-paging migrated pages: %+v", vm.Guest.Stats)
	}
}

func TestCAPagingFallbackWhenAnchorOccupied(t *testing.T) {
	_, vm := newVM(NewCAPaging(DefaultCAPagingParams()), BaseOnly{})
	fr := frag.New(vm.Guest.Buddy, 5)
	fr.FragmentTo(0.95, 0.9)
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch pages; with fragmented memory many targeted placements
	// fail but faults must still succeed.
	for i := uint64(0); i < 2*mem.PagesPerHuge; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	if vm.Guest.Table.Mapped4K() != 2*mem.PagesPerHuge {
		t.Fatalf("Mapped4K = %d", vm.Guest.Table.Mapped4K())
	}
}

// refChooseAnchor is CA-paging's anchor choice over the allocator's
// whole free-run list, the form it took before the query was bounded:
// the loop stops at index MaxAnchorSearch once it has a candidate, so
// it reads only the first max(1, MaxAnchorSearch) runs.
func refChooseAnchor(regions []mem.Region, p CAPagingParams, v *machine.VMA) (uint64, bool) {
	if len(regions) == 0 {
		return 0, false
	}
	want := v.Pages()
	var best mem.Region
	found := false
	for i, r := range regions {
		if i >= p.MaxAnchorSearch && found {
			break
		}
		if r.Pages >= want {
			best, found = r, true
			break
		}
		if !found || r.Pages > best.Pages {
			best, found = r, true
		}
	}
	if !found {
		return 0, false
	}
	vmaStartPage := v.Start / mem.PageSize
	anchor := best.Start
	congr := vmaStartPage % mem.PagesPerHuge
	if rem := anchor % mem.PagesPerHuge; rem != congr {
		anchor += (congr + mem.PagesPerHuge - rem) % mem.PagesPerHuge
	}
	if anchor >= best.End() {
		return 0, false
	}
	return anchor, true
}

// TestCAPagingAnchorMatchesFullList checks that chooseAnchor, which
// asks the allocator for only the runs it reads, picks the same anchor
// as refChooseAnchor over the full list, on fragmented and exhausted
// allocators, for search bounds at and around the run limit and VMAs
// that fit the first run, a later run, or none.
func TestCAPagingAnchorMatchesFullList(t *testing.T) {
	searches := []int{-1, 0, 1, 2, 32, 1 << 20}
	sizes := []uint64{1, 7, 100, mem.PagesPerHuge, 3*mem.PagesPerHuge + 5, 1 << 16}
	for seed := int64(1); seed <= 6; seed++ {
		a := buddy.New(hostPages + 70)
		if seed <= 3 {
			frag.New(a, seed).FragmentTo(0.9, 0.6)
		} else {
			// Free runs of 1 to 8191 frames, log-uniform, between
			// 1 to 8 allocated frames: the first few runs differ in
			// size, so the search bound decides the anchor.
			for {
				if _, err := a.Alloc(0); err != nil {
					break
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for f := uint64(0); f < a.TotalPages(); {
				f += uint64(1 + rng.Intn(8))
				n := uint64(1)<<rng.Intn(13) + uint64(rng.Intn(1<<rng.Intn(13)))
				for end := min(f+n, a.TotalPages()); f < end; f++ {
					a.Free(f, 0)
				}
			}
		}
		L := &machine.Layer{Buddy: a}
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				// Exhaust the allocator: no run at all.
				for {
					if _, err := a.Alloc(0); err != nil {
						break
					}
				}
			}
			full := a.FreeRegions(nil, 1, 0)
			for _, ms := range searches {
				c := NewCAPaging(CAPagingParams{MaxAnchorSearch: ms})
				for i, n := range sizes {
					v := &machine.VMA{ID: i, Start: uint64(i*977) * mem.PageSize, Length: n * mem.PageSize}
					got, gotOK := c.chooseAnchor(L, v)
					want, wantOK := refChooseAnchor(full, c.P, v)
					if got != want || gotOK != wantOK {
						t.Fatalf("seed %d phase %d MaxAnchorSearch %d VMA %d pages: chooseAnchor = %#x, %v; full-list loop %#x, %v",
							seed, phase, ms, n, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

func TestRangerCompactsAndCharges(t *testing.T) {
	p := DefaultRangerParams()
	p.AlignEvery = 0 // contiguity only, never aligned
	_, vm := newVM(NewRanger(p), BaseOnly{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Scatter allocations: touch odd pages of region 0 then odd pages
	// of region 1, interleaved, to break contiguity.
	for i := uint64(0); i < 200; i++ {
		vm.Access(v.Start + (i%2)*mem.HugeSize + (i/2)*2*mem.PageSize)
	}
	vm.Guest.Policy.Tick(vm.Guest)
	if vm.Guest.Stats.MigratedPages == 0 {
		t.Fatal("ranger migrated nothing")
	}
	if vm.Guest.Stats.BackgroundCycles == 0 {
		t.Fatal("no overhead charged")
	}
	// Compaction made region 0 contiguous (but not aligned -> no huge).
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("unaligned compaction created huge page")
	}
	// Stall queued for the foreground (drained in quanta).
	if got := vm.Guest.TakeStall(); got < machine.DefaultCosts().Shootdown {
		t.Fatalf("stall queued = %d, want >= shootdown", got)
	}
}

func TestRangerOpportunisticAlignment(t *testing.T) {
	p := DefaultRangerParams()
	p.AlignEvery = 1 // every region aligned
	_, vm := newVM(NewRanger(p), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	touchRegion(vm, v, 1)
	vm.Guest.Policy.Tick(vm.Guest)
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatalf("aligned compaction did not promote: %+v", vm.Guest.Stats)
	}
}

func TestUncoordinatedMisalignment(t *testing.T) {
	// The package-level statement of the paper's motivation: THP at
	// both layers, fragmented host memory, produces huge pages at both
	// layers but few aligned pairs.
	m := machine.NewMachine(hostPages, machine.DefaultCosts())
	hostTHP := NewTHP(DefaultTHPParams())
	guestTHP := NewTHP(DefaultTHPParams())
	vm := m.AddVM(guestPages, guestTHP, hostTHP, tlb.DefaultConfig())
	hf := frag.New(m.HostBuddy, 11)
	hf.FragmentTo(0.97, 0.55)
	gf := frag.New(vm.Guest.Buddy, 12)
	gf.FragmentTo(0.97, 0.45)

	// Footprint (48 regions) far exceeds the post-fragmentation supply
	// of free 2 MiB blocks at either layer, the regime the paper's
	// fragmented runs operate in.
	const regions = 48
	v := vm.Guest.Space.MMap(regions*mem.HugeSize, 0)
	for r := 0; r < regions; r++ {
		base := v.Start + uint64(r)*mem.HugeSize
		for i := uint64(0); i < mem.PagesPerHuge; i += 4 {
			vm.Access(base + i*mem.PageSize)
		}
		if r%4 == 3 {
			m.Tick()
		}
	}
	for i := 0; i < 30; i++ {
		m.Tick()
		// Keep re-accessing so EPT presence follows guest placement.
		for r := 0; r < regions; r++ {
			vm.Access(v.Start + uint64(r)*mem.HugeSize + uint64(i*32%512)*mem.PageSize)
		}
	}
	a := vm.Alignment()
	if a.GuestHuge == 0 && a.HostHuge == 0 {
		t.Fatal("no huge pages formed at all")
	}
	if a.Rate() > 0.55 {
		t.Fatalf("uncoordinated layers suspiciously aligned: %+v rate=%.2f", a, a.Rate())
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]machine.Policy{
		"base-only": BaseOnly{},
		"huge-only": HugeOnly{},
		"thp":       NewTHP(DefaultTHPParams()),
		"ingens":    NewIngens(DefaultIngensParams()),
		"hawkeye":   NewHawkEye(DefaultHawkEyeParams()),
		"ca-paging": NewCAPaging(DefaultCAPagingParams()),
		"ranger":    NewRanger(DefaultRangerParams()),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}
