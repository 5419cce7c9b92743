package pagetable

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// FuzzPageTableMapUnmap drives random map/unmap/collapse/split/remap
// sequences over an 8-region (16 MiB) address window and runs the
// structural audit after every operation. Frames are handed out by
// monotone counters so no frame is ever legally double-mapped; the
// audit is the oracle for everything else (partition, rmap inverse,
// counters, live counts, alignment).
func FuzzPageTableMapUnmap(f *testing.F) {
	// Seeds: scatter of base maps; full region + collapse + split;
	// huge map + unmap; remap churn.
	f.Add([]byte{0, 1, 0, 0, 5, 0, 1, 1, 0, 6, 200, 1})
	f.Add([]byte{7, 0, 0, 5, 0, 0, 4, 0, 0, 7, 1, 0, 5, 1, 0})
	f.Add([]byte{2, 2, 0, 3, 2, 0, 2, 3, 0, 4, 3, 0})
	f.Add([]byte{7, 4, 0, 6, 0, 8, 6, 1, 8, 1, 0, 8, 5, 4, 0})

	const regions = 8
	const pages = regions * mem.PagesPerHuge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			data = data[:3*1024]
		}
		tb := New()
		nextFrame := uint64(1 << 30) // base frames: always fresh
		nextHuge := uint64(1 << 40)  // huge-aligned frames: always fresh
		takeHuge := func() uint64 {
			h := nextHuge
			nextHuge += mem.PagesPerHuge
			return h
		}

		check := func(step int, op string) {
			t.Helper()
			if vs := tb.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("step %d (%s): %s", step, op, audit.Report(vs))
			}
		}

		for step := 0; step+2 < len(data); step += 3 {
			op := data[step] % 8
			arg := uint64(data[step+1]) | uint64(data[step+2])<<8
			va := (arg % pages) * mem.PageSize
			hva := (arg % regions) * mem.HugeSize
			switch op {
			case 0: // Map4K with a fresh frame
				if err := tb.Map4K(va, nextFrame); err == nil {
					nextFrame++
				}
				check(step, "Map4K")
			case 1: // Unmap4K
				_, _ = tb.Unmap4K(va)
				check(step, "Unmap4K")
			case 2: // Map2M with a fresh aligned frame
				if err := tb.Map2M(hva, nextHuge); err == nil {
					nextHuge += mem.PagesPerHuge
				}
				check(step, "Map2M")
			case 3: // Unmap2M
				_, _ = tb.Unmap2M(hva)
				check(step, "Unmap2M")
			case 4: // Split a huge mapping into 512 base PTEs
				_ = tb.Split(hva)
				check(step, "Split")
			case 5: // Collapse 512 contiguous base PTEs in place
				_ = tb.Collapse(hva)
				check(step, "Collapse")
			case 6: // Remap4K (migration) to a fresh frame
				if _, err := tb.Remap4K(va, nextFrame); err == nil {
					nextFrame++
				}
				check(step, "Remap4K")
			case 7: // Populate a whole region with contiguous frames so
				// a later Collapse can succeed.
				base := takeHuge()
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_ = tb.Map4K(hva+i*mem.PageSize, base+i)
				}
				check(step, "PopulateRegion")
			}
		}
	})
}

// scanRangeRef is the rebuild-from-scratch oracle for ScanRange: a
// full ScanAll filtered by the overlap rule (VA < end and VA+size >
// start), truncated to the first limit hits to mirror a visitor that
// stops early (limit < 0 means no limit).
func scanRangeRef(tb *Table, start, end uint64, limit int) []Mapping {
	var out []Mapping
	tb.ScanAll(func(m Mapping) bool {
		if m.VA < end && m.VA+m.Kind.Bytes() > start {
			if len(out) == limit {
				return false
			}
			out = append(out, m)
		}
		return true
	})
	return out
}

// FuzzScanRangeOracle drives random Map4K/Map2M/Unmap/Split/Collapse
// sequences over regions that sit on both sides of PMD-node (1 GiB)
// and PUD-node (512 GiB) boundaries, and on every query op compares
// the range-pruned ScanRange against scanRangeRef. Queries use
// unaligned starts, empty and inverted ranges, ranges spanning node
// boundaries, starts inside a huge mapping (which must be reported),
// and visitors that stop early.
func FuzzScanRangeOracle(f *testing.F) {
	// Seeds: huge map then a query starting inside it; base scatter
	// and a boundary-spanning query; populate, collapse, split, query.
	f.Add([]byte{2, 1, 0, 0, 7, 1, 40, 3})
	f.Add([]byte{0, 4, 9, 0, 0, 5, 200, 0, 0, 8, 3, 0, 7, 3, 0, 255})
	f.Add([]byte{6, 9, 0, 0, 5, 9, 0, 0, 7, 9, 17, 2, 4, 9, 0, 0, 7, 8, 0, 6})
	f.Add([]byte{2, 12, 0, 0, 2, 13, 0, 0, 7, 12, 255, 5, 3, 12, 0, 0, 7, 11, 1, 4})
	// A one-byte range at the first page of a PTE node.
	f.Add([]byte{0, 5, 0, 0, 7, 5, 0, 1})

	// 16 regions: four runs of four consecutive 2 MiB regions, the
	// middle two runs straddling a 1 GiB and a 512 GiB boundary.
	var regions [16]uint64
	for i, base := range []uint64{0, 1<<30 - 2*mem.HugeSize, 1<<39 - 2*mem.HugeSize, 3<<39 + 5<<30} {
		for j := uint64(0); j < 4; j++ {
			regions[i*4+int(j)] = base + j*mem.HugeSize
		}
	}
	lengths := [...]uint64{0, 1, mem.PageSize, mem.HugeSize - 1, mem.HugeSize, 3 * mem.HugeSize, 1 << 31, ^uint64(0) / 2}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*512 {
			data = data[:4*512]
		}
		tb := New()
		nextFrame := uint64(1 << 30)
		nextHuge := uint64(1 << 40)
		for step := 0; step+3 < len(data); step += 4 {
			op, a, b, c := data[step]%8, data[step+1], data[step+2], data[step+3]
			hva := regions[a%16]
			va := hva + uint64(b)<<1%mem.PagesPerHuge*mem.PageSize
			switch op {
			case 0:
				if tb.Map4K(va, nextFrame) == nil {
					nextFrame++
				}
			case 1:
				_, _ = tb.Unmap4K(va)
			case 2:
				if tb.Map2M(hva, nextHuge) == nil {
					nextHuge += mem.PagesPerHuge
				}
			case 3:
				_, _ = tb.Unmap2M(hva)
			case 4:
				_ = tb.Split(hva)
			case 5:
				_ = tb.Collapse(hva)
			case 6: // populate contiguously so Collapse can succeed
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_ = tb.Map4K(hva+i*mem.PageSize, nextHuge+i)
				}
				nextHuge += mem.PagesPerHuge
			case 7: // query
				start := hva + uint64(b)*4099 // unaligned, may sit mid-huge
				end := start + lengths[c%8]
				if c&8 != 0 {
					end = start - lengths[c%8] // inverted
				}
				limit := -1
				if c&16 != 0 {
					limit = int(c >> 5)
				}
				want := scanRangeRef(tb, start, end, limit)
				var got []Mapping
				tb.ScanRange(start, end, func(m Mapping) bool {
					if len(got) == limit {
						return false
					}
					got = append(got, m)
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("step %d: ScanRange(%#x, %#x) limit %d found %d, reference %d:\n got %+v\nwant %+v",
						step, start, end, limit, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: ScanRange(%#x, %#x) hit %d = %+v, reference %+v",
							step, start, end, i, got[i], want[i])
					}
				}
			}
		}
	})
}
