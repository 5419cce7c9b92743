package machine_test

// Tests pinning the walk cache's two contracts (DESIGN.md §7): it is
// purely an accelerator (observable results identical with the cache
// on or off), and it can never serve a stale translation across any
// sequence of destructive page-table operations. Both are checked the
// same way — by driving a cached VM and an uncached reference twin
// through identical inputs and demanding identical outputs — because
// the uncached path re-walks both tables on every access and is
// therefore stale-proof by construction.

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// twinVM builds one VM on its own machine with THP at both layers
// (the most invalidation-heavy configuration: synchronous huge
// faults, background collapse, reclaim-driven splits) and an 8 MiB
// VMA to play in.
func twinVM() (*machine.Machine, *machine.VM) { return twinVMIn(nil) }

// twinVMIn is twinVM in the given translation mode (nil selects the
// default radix walk), installed before the VMA is mapped.
func twinVMIn(mode machine.TranslationMode) (*machine.Machine, *machine.VM) {
	const guestPages = (64 << 20) >> mem.PageShift
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVMSetup(machine.VMSetup{
		GuestPages:  guestPages,
		GuestPolicy: policy.NewTHP(policy.DefaultTHPParams()),
		HostPolicy:  policy.NewTHP(policy.DefaultTHPParams()),
		TLB:         tlb.DefaultConfig(),
		Translation: mode,
	})
	vm.Guest.Space.MMap(8<<20, 0)
	return m, vm
}

// fuzzSpan is the page span fuzz ops address: the 8 MiB VMA.
const fuzzSpan = (8 << 20) >> mem.PageShift

// FuzzWalkCacheInvalidation drives a cached VM and an uncached twin
// through an arbitrary interleaving of accesses and destructive
// operations — promote, demote, unmap/remap, reclaim, background
// ticks, cache re-arming — and requires every access to charge
// identical cycles and the final machines to agree on all observable
// state. A walk cache serving one stale translation (a missed
// version bump anywhere in pagetable's destructive ops) shows up as
// a cycle or TLB-stat divergence. The first byte picks the twins'
// translation mode (even: radix, odd: segment), since AccessN's
// two-pass hit loop serves both; the batch op runs one AccessN of up
// to 2048 pages on the cached twin, across the staging chunk, against
// per-address Access on the uncached one.
func FuzzWalkCacheInvalidation(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 10, 0, 10})                          // access, promote, access
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0})                             // access, demote, access
	f.Add([]byte{0, 0, 7, 3, 0, 0, 7, 0, 9})                       // unmap/remap cycle
	f.Add([]byte{0, 0, 1, 4, 0, 0, 1, 5, 0, 0, 2, 6, 1, 0, 3})     // ticks, reclaim, toggle
	f.Add([]byte{0, 0, 200, 1, 200, 4, 0, 0, 200, 2, 200, 0, 201}) // promote+tick+demote
	f.Add([]byte{0, 7, 255, 7, 255, 1, 3, 7, 200, 2, 3, 7, 255})   // batches around promote/demote
	f.Add([]byte{1, 0, 10, 7, 255, 1, 10, 7, 255, 4, 0, 7, 128})   // segment: access, batches, tick
	f.Add([]byte{1, 7, 255, 3, 0, 7, 255, 6, 0, 7, 100, 5, 0})     // segment: remap, re-arm, reclaim
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		newTwin := twinVM
		if in[0]%2 == 1 {
			newTwin = func() (*machine.Machine, *machine.VM) {
				return twinVMIn(machine.NewSegmentTranslation())
			}
		}
		ops := in[1:]
		mc, cached := newTwin()
		mr, ref := newTwin()
		ref.SetWalkCacheEnabled(false)
		base := cached.Guest.Space.VMAs()[0].Start
		if rb := ref.Guest.Space.VMAs()[0].Start; rb != base {
			t.Fatalf("twins diverge before any op: bases %#x vs %#x", base, rb)
		}
		var run []uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, uint64(ops[i+1])
			va := base + (arg*977)%fuzzSpan*mem.PageSize
			switch op {
			case 0: // the probe itself: identical charge on both twins
				c1 := cached.Access(va)
				c2 := ref.Access(va)
				if c1 != c2 {
					t.Fatalf("op %d: access %#x cost %d cycles cached, %d uncached", i, va, c1, c2)
				}
			case 1: // guest promotion (collapse): bumps the guest version.
				// Skip already-huge regions, as every policy does: the
				// Layer promotion API is a collapse precondition away
				// from double-counting stats.
				hb := va &^ uint64(mem.HugeSize-1)
				_, h1, _ := cached.Guest.Table.LookupHugeRegion(hb)
				_, h2, _ := ref.Guest.Table.LookupHugeRegion(hb)
				if h1 != h2 {
					t.Fatalf("op %d: hugeness diverged at %#x", i, hb)
				}
				if h1 {
					continue
				}
				e1 := cached.Guest.PromoteInPlace(hb)
				e2 := ref.Guest.PromoteInPlace(hb)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: promote diverged: %v vs %v", i, e1, e2)
				}
			case 2: // guest demotion (split)
				e1 := cached.Guest.Demote(va &^ (mem.HugeSize - 1))
				e2 := ref.Guest.Demote(va &^ (mem.HugeSize - 1))
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: demote diverged: %v vs %v", i, e1, e2)
				}
			case 3: // unmap the VMA and map a fresh one: table churn + remap
				cached.Guest.UnmapVMA(cached.Guest.Space.VMAs()[0])
				ref.Guest.UnmapVMA(ref.Guest.Space.VMAs()[0])
				cached.Guest.Space.MMap(8<<20, 0)
				ref.Guest.Space.MMap(8<<20, 0)
				base = cached.Guest.Space.VMAs()[0].Start
			case 4: // background quantum: compaction, reclaim, policy ticks
				mc.Tick()
				mr.Tick()
			case 5: // EPT-side reclaim: demotes cold huge EPT mappings,
				// an invalidation path that bypasses TLB shootdown hooks
				cached.EPT.ReclaimUnderPressure(cached.EPT.Buddy.TotalPages(), 4, nil)
				ref.EPT.ReclaimUnderPressure(ref.EPT.Buddy.TotalPages(), 4, nil)
			case 6: // re-arm the cached twin's cache (release + init path)
				cached.SetWalkCacheEnabled(arg%2 == 0)
			case 7: // one AccessN over (arg+1)*8 pages, wrapping in the span
				start := (arg * 977) % fuzzSpan
				run = run[:0]
				for k := uint64(0); k < (arg+1)*8; k++ {
					run = append(run, base+(start+k)%fuzzSpan*mem.PageSize)
				}
				c1 := cached.AccessN(run)
				var c2 uint64
				for _, gva := range run {
					c2 += ref.Access(gva)
				}
				if c1 != c2 {
					t.Fatalf("op %d: batch of %d from %#x cost %d cycles cached, %d uncached",
						i, len(run), run[0], c1, c2)
				}
			}
		}
		s1, s2 := cached.TLB.Stats(), ref.TLB.Stats()
		if s1 != s2 {
			t.Fatalf("TLB stats diverged:\ncached %+v\nuncached %+v", s1, s2)
		}
		if a1, a2 := cached.Alignment(), ref.Alignment(); a1 != a2 {
			t.Fatalf("alignment diverged: %+v vs %+v", a1, a2)
		}
		for _, pair := range [][2]*machine.Layer{
			{cached.Guest, ref.Guest}, {cached.EPT, ref.EPT},
		} {
			if m1, m2 := pair[0].Table.Mapped4K(), pair[1].Table.Mapped4K(); m1 != m2 {
				t.Fatalf("%s mapped4K diverged: %d vs %d", pair[0].Name, m1, m2)
			}
			if m1, m2 := pair[0].Table.Mapped2M(), pair[1].Table.Mapped2M(); m1 != m2 {
				t.Fatalf("%s mapped2M diverged: %d vs %d", pair[0].Name, m1, m2)
			}
		}
		if vs := mc.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("cached machine corrupt after op sequence: %v", vs)
		}
	})
}

// TestWalkCacheObserverEffect runs a real (churning, gradually
// allocated) workload to completion twice — walk cache on, walk cache
// off — and requires identical per-request cycle totals and final
// machine state. This is the observable-equivalence contract
// SetWalkCacheEnabled's documentation promises, checked at workload
// scale rather than per-op.
func TestWalkCacheObserverEffect(t *testing.T) {
	run := func(enable bool) (cycles []uint64, stats tlb.Stats, align machine.AlignStats) {
		const guestPages = (256 << 20) >> mem.PageShift
		m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
		vm := m.AddVM(guestPages,
			policy.NewTHP(policy.DefaultTHPParams()),
			policy.NewTHP(policy.DefaultTHPParams()),
			tlb.DefaultConfig())
		vm.SetWalkCacheEnabled(enable)
		w := workload.New(workload.Redis(), vm, 7)
		for i := 0; i < 3000; i++ {
			cycles = append(cycles, w.StepOne())
			if i%64 == 63 {
				m.Tick()
			}
		}
		return cycles, vm.TLB.Stats(), vm.Alignment()
	}
	c1, s1, a1 := run(true)
	c2, s2, a2 := run(false)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("request %d: %d cycles cached, %d uncached", i, c1[i], c2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("TLB stats diverged:\ncached %+v\nuncached %+v", s1, s2)
	}
	if a1 != a2 {
		t.Fatalf("alignment diverged: %+v vs %+v", a1, a2)
	}
}
