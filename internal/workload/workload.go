// Package workload generates memory access streams modelling the
// applications in Table 2 of the paper (TailBench latency-critical
// services, key/value stores, transactional databases, PARSEC and NPB
// kernels, SPEC 429.mcf, and SVM training). Real binaries cannot run
// against a simulated MMU, so each application is modelled by the
// axes that drive the paper's results:
//
//   - memory footprint and how it is reached (static upfront arrays
//     vs. gradual allocation with churn — the Redis/RocksDB pattern
//     that fragments memory, §6.2);
//   - access distribution (uniform, Zipfian, sequential, mixed);
//   - request shape for latency-reporting workloads;
//   - zero-page fraction (HawkEye's dedup behaviour on Specjbb);
//   - TLB sensitivity (Shore and NPB SP.D are the paper's
//     non-sensitive pair, §6.5).
//
// Generators are deterministic for a given seed.
//
// See DESIGN.md §2 (system inventory, "workload models") for the
// modelling axes and DESIGN.md §7 for the precomputed access streams
// the hot path consumes.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fastdiv"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Pattern is an access distribution.
type Pattern int

const (
	// Uniform picks pages uniformly over the touched footprint.
	Uniform Pattern = iota
	// Zipf concentrates accesses on a hot subset.
	Zipf
	// Sequential streams over the footprint.
	Sequential
	// Mixed alternates Zipf and Uniform.
	Mixed
)

// AllocStyle is how the footprint comes into existence.
type AllocStyle int

const (
	// Static maps the whole footprint up front (dense arrays: SVM,
	// CG.D, Canneal).
	Static AllocStyle = iota
	// Gradual grows the footprint during the run and churns VMAs
	// (dynamic data structures: Redis, RocksDB, Xapian).
	Gradual
)

// Spec describes one application model.
type Spec struct {
	// Name is the paper's workload name.
	Name string
	// FootprintMB is the resident set size in MiB.
	FootprintMB int
	// VMACount is how many VMAs the footprint spans.
	VMACount int
	// Style selects static or gradual allocation.
	Style AllocStyle
	// Access selects the access distribution.
	Access Pattern
	// LatencySensitive marks workloads that report request latencies.
	LatencySensitive bool
	// RequestPages is the number of page accesses per request.
	RequestPages int
	// ServiceCycles is the fixed non-memory work per request.
	ServiceCycles uint64
	// ZeroFraction is the share of pages that stay zero (deduplicable).
	ZeroFraction float64
	// TLBSensitive is false for workloads whose locality defeats TLB
	// pressure (Shore, SP.D).
	TLBSensitive bool
	// ChurnRate is the expected number of VMA unmap/remap events per
	// hundred requests (Gradual only). Arena turnover in allocators
	// is orders of magnitude rarer than requests.
	ChurnRate float64
}

// Pages returns the footprint in base pages.
func (s Spec) Pages() uint64 { return uint64(s.FootprintMB) << 20 >> mem.PageShift }

// Table2 returns the full workload list of the paper's Table 2 plus
// the SVM predecessor used in reused-VM runs.
func Table2() []Spec {
	return []Spec{
		ImgDNN(), Sphinx(), Moses(), Xapian(), Masstree(), Specjbb(),
		Silo(), Shore(), RocksDB(), Redis(), Memcached(), Canneal(),
		Streamcluster(), Dedup(), CGD(), SPD(), MCF(), SVM(),
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Table2() {
		if s.Name == name {
			return s, nil
		}
	}
	if name == "micro" {
		return Micro(64), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// ImgDNN models TailBench's handwriting-recognition service.
func ImgDNN() Spec {
	return Spec{Name: "img-dnn", FootprintMB: 160, VMACount: 3, Style: Static,
		Access: Zipf, LatencySensitive: true, RequestPages: 24,
		ServiceCycles: 14400, ZeroFraction: 0.05, TLBSensitive: true}
}

// Sphinx models TailBench's speech-recognition service.
func Sphinx() Spec {
	return Spec{Name: "sphinx", FootprintMB: 176, VMACount: 3, Style: Static,
		Access: Zipf, LatencySensitive: true, RequestPages: 32,
		ServiceCycles: 19200, TLBSensitive: true}
}

// Moses models TailBench's statistical machine translation service.
func Moses() Spec {
	return Spec{Name: "moses", FootprintMB: 144, VMACount: 4, Style: Gradual,
		Access: Mixed, LatencySensitive: true, RequestPages: 20,
		ServiceCycles: 12000, ChurnRate: 0.02, TLBSensitive: true}
}

// Xapian models TailBench's search engine (many small allocations).
func Xapian() Spec {
	return Spec{Name: "xapian", FootprintMB: 128, VMACount: 6, Style: Gradual,
		Access: Zipf, LatencySensitive: true, RequestPages: 16,
		ServiceCycles: 9600, ChurnRate: 0.05, TLBSensitive: true}
}

// Masstree models the in-memory key/value store (50% GET, 50% PUT).
func Masstree() Spec {
	return Spec{Name: "masstree", FootprintMB: 320, VMACount: 2, Style: Static,
		Access: Uniform, LatencySensitive: true, RequestPages: 12,
		ServiceCycles: 7200, TLBSensitive: true}
}

// Specjbb models the Java middleware benchmark. Its large population
// of in-use zero pages is what trips HawkEye's deduplication (§6.2).
func Specjbb() Spec {
	return Spec{Name: "specjbb", FootprintMB: 256, VMACount: 2, Style: Static,
		Access: Zipf, LatencySensitive: true, RequestPages: 20,
		ServiceCycles: 12000, ZeroFraction: 0.35, TLBSensitive: true}
}

// Silo models the in-memory transactional database running TPC-C.
func Silo() Spec {
	return Spec{Name: "silo", FootprintMB: 256, VMACount: 2, Style: Static,
		Access: Uniform, LatencySensitive: true, RequestPages: 16,
		ServiceCycles: 9600, TLBSensitive: true}
}

// Shore models the on-disk transactional database: I/O bound with a
// small hot working set, hence TLB-insensitive.
func Shore() Spec {
	return Spec{Name: "shore", FootprintMB: 4, VMACount: 2, Style: Static,
		Access: Sequential, LatencySensitive: true, RequestPages: 6,
		ServiceCycles: 20000, TLBSensitive: false}
}

// RocksDB models the LSM store serving random 50/50 SET/GET: gradual
// growth with heavy churn that fragments memory quickly (§6.2).
func RocksDB() Spec {
	return Spec{Name: "rocksdb", FootprintMB: 352, VMACount: 6, Style: Gradual,
		Access: Mixed, LatencySensitive: true, RequestPages: 14,
		ServiceCycles: 8400, ChurnRate: 0.08, TLBSensitive: true}
}

// Redis models the in-memory store serving random 50/50 SET/GET.
func Redis() Spec {
	return Spec{Name: "redis", FootprintMB: 352, VMACount: 5, Style: Gradual,
		Access: Zipf, LatencySensitive: true, RequestPages: 10,
		ServiceCycles: 6000, ChurnRate: 0.08, TLBSensitive: true}
}

// Memcached models the slab-allocated cache.
func Memcached() Spec {
	return Spec{Name: "memcached", FootprintMB: 320, VMACount: 3, Style: Static,
		Access: Uniform, LatencySensitive: true, RequestPages: 8,
		ServiceCycles: 4800, TLBSensitive: true}
}

// Canneal models the PARSEC simulated-annealing kernel (pointer
// chasing over a large netlist).
func Canneal() Spec {
	return Spec{Name: "canneal", FootprintMB: 256, VMACount: 2, Style: Static,
		Access: Uniform, RequestPages: 32, ServiceCycles: 19200,
		TLBSensitive: true}
}

// Streamcluster models the PARSEC streaming clustering kernel.
func Streamcluster() Spec {
	return Spec{Name: "streamcluster", FootprintMB: 192, VMACount: 2, Style: Static,
		Access: Mixed, RequestPages: 32, ServiceCycles: 19200,
		TLBSensitive: true}
}

// Dedup models the PARSEC deduplication pipeline.
func Dedup() Spec {
	return Spec{Name: "dedup", FootprintMB: 192, VMACount: 4, Style: Gradual,
		Access: Mixed, RequestPages: 24, ServiceCycles: 14400,
		ChurnRate: 0.04, TLBSensitive: true}
}

// CGD models NPB CG class D: dense static arrays, uniform sparse
// matrix-vector access.
func CGD() Spec {
	return Spec{Name: "cg.d", FootprintMB: 416, VMACount: 1, Style: Static,
		Access: Uniform, RequestPages: 48, ServiceCycles: 28800,
		TLBSensitive: true}
}

// SPD models NPB SP class D: stencil sweeps with strong locality,
// hence TLB-insensitive at these working-set sizes.
func SPD() Spec {
	return Spec{Name: "sp.d", FootprintMB: 4, VMACount: 1, Style: Static,
		Access: Sequential, RequestPages: 48, ServiceCycles: 4000,
		TLBSensitive: false}
}

// MCF models SPEC CPU 2006 429.mcf (network simplex, pointer heavy).
func MCF() Spec {
	return Spec{Name: "429.mcf", FootprintMB: 320, VMACount: 1, Style: Static,
		Access: Uniform, RequestPages: 40, ServiceCycles: 24000,
		TLBSensitive: true}
}

// SVM models the rank-SVM trainer: the biggest static footprint, used
// both standalone and as the predecessor in reused-VM runs (§6.3).
func SVM() Spec {
	return Spec{Name: "svm", FootprintMB: 416, VMACount: 1, Style: Static,
		Access: Uniform, RequestPages: 64, ServiceCycles: 38400,
		TLBSensitive: true}
}

// Micro is the Figure 2 micro-benchmark: random accesses over a data
// set of the given size.
func Micro(footprintMB int) Spec {
	return Spec{Name: "micro", FootprintMB: footprintMB, VMACount: 1,
		Style: Static, Access: Uniform, RequestPages: 16,
		ServiceCycles: 0, TLBSensitive: true}
}

// Workload is a running instance of a Spec bound to a VM.
type Workload struct {
	Spec
	rng  *rand.Rand
	zipf *rand.Zipf
	vm   *machine.VM

	vmas       []*machine.VMA
	vmaPages   uint64 // pages per VMA
	touched    uint64 // pages faulted so far (gradual growth frontier)
	seqCursor  uint64
	totalPages uint64
	// addrs is the precomputed page-index -> guest-VA table: addrs[p]
	// == addrOf(p). It removes two integer divisions from every access
	// (the hottest workload-side operation) at the cost of one rebuild
	// per VMA churn event, which is orders of magnitude rarer.
	addrs []uint64

	// Cached draw-confinement state for drawInto: lim is the
	// last limit the draws were confined to, limDiv its reciprocal,
	// uniMax the Int63n rejection threshold for it. Recomputed only
	// when the touched frontier moves (never for Static specs after
	// population), so the two hardware divisions math/rand pays per
	// uniform draw collapse to multiplies.
	lim     uint64
	limPow2 bool
	limDiv  fastdiv.Divisor
	uniMax  int64
	// pageBuf/addrBuf are the reusable draw and translation buffers
	// for StepN chunks; sized at New so the steady state stays
	// allocation-free (TestAccessSteadyStateZeroAllocs).
	pageBuf []uint64
	addrBuf []uint64
}

// New binds a spec to a VM and performs setup: VMAs are created and,
// for Static specs, the whole footprint is touched (the population
// phase of a real run).
func New(spec Spec, vm *machine.VM, seed int64) *Workload {
	w := &Workload{
		Spec:       spec,
		rng:        rand.New(rand.NewSource(seed)),
		vm:         vm,
		totalPages: spec.Pages(),
	}
	if spec.VMACount < 1 {
		w.VMACount = 1
	}
	w.vmaPages = w.totalPages / uint64(w.VMACount)
	if w.vmaPages == 0 {
		w.vmaPages = 1
	}
	for i := 0; i < w.VMACount; i++ {
		// Page-but-not-huge-aligned placements, as real mmap yields.
		off := uint64(w.rng.Intn(mem.PagesPerHuge))
		w.vmas = append(w.vmas, vm.Guest.Space.MMap(w.vmaPages*mem.PageSize, off))
	}
	w.rebuildAddrs()
	bufCap := 2048
	if w.RequestPages > bufCap {
		bufCap = w.RequestPages
	}
	w.pageBuf = make([]uint64, bufCap)
	w.addrBuf = make([]uint64, bufCap)
	w.zipf = rand.NewZipf(w.rng, 1.1, 64, w.totalPages-1)
	if w.Style == Static {
		w.populate()
	} else {
		// Gradual: start with a quarter of the footprint.
		w.growTo(w.totalPages / 4)
	}
	return w
}

// populate touches every page once (sequential first-touch).
func (w *Workload) populate() { w.growTo(w.totalPages) }

// growTo extends the touched frontier to n pages, first-touching the
// new pages in ascending index order with one AccessN over the
// contiguous addrs window.
func (w *Workload) growTo(n uint64) {
	if n > w.totalPages {
		n = w.totalPages
	}
	if w.touched < n {
		w.vm.AccessN(w.addrs[w.touched:n])
		w.touched = n
	}
}

// rebuildAddrs recomputes the page-index -> VA table from the current
// VMA placements: page p lives in VMA (p / vmaPages) mod len(vmas) at
// offset (p mod vmaPages) pages.
func (w *Workload) rebuildAddrs() {
	if w.addrs == nil {
		w.addrs = make([]uint64, w.totalPages)
	}
	for page := uint64(0); page < w.totalPages; page++ {
		v := w.vmas[page/w.vmaPages%uint64(len(w.vmas))]
		w.addrs[page] = v.Start + (page%w.vmaPages)*mem.PageSize
	}
}

// recacheLimit rebuilds the confinement state for a new draw limit:
// the reciprocal for the `% limit` folds and the rejection threshold
// math/rand.Int63n would use for the same limit (max = 2^63-1 -
// 2^63 mod limit), so drawInto consumes the exact same Int63 stream.
func (w *Workload) recacheLimit(limit uint64) {
	w.lim = limit
	w.limPow2 = limit&(limit-1) == 0
	w.limDiv = fastdiv.New(limit)
	w.uniMax = int64(uint64(math.MaxInt64) - (uint64(1)<<63)%limit)
}

// drawInto fills dst with page indexes from the access distribution,
// confined to the touched frontier. Each draw is what the math/rand
// call for its pattern (Int63n(limit), zipf.Uint64() % limit, ...)
// would return, from the same Int63 stream — TestDrawIntoMatchesNextPage
// holds it to that reference. The per-draw pattern switch and limit
// recheck are hoisted out of the loop, and the `% limit` folds go
// through the cached reciprocal. math/rand replication notes, per
// pattern:
//
//   - Uniform: Int63n(n) masks for power-of-two n and otherwise
//     rejection-samples Int63 above uniMax before one `% n`;
//   - Zipf: zipf.Uint64() draws only from w.rng, then `% limit`;
//   - Sequential: cursor increment then `% limit` (no RNG);
//   - Mixed: Intn(2) is Int31n(2) is Int31()&1 is (Int63()>>32)&1.
func (w *Workload) drawInto(dst []uint64) {
	limit := w.touched
	if limit == 0 {
		limit = 1
	}
	if limit != w.lim {
		w.recacheLimit(limit)
	}
	switch w.Access {
	case Uniform:
		if w.limPow2 {
			mask := w.lim - 1
			for i := range dst {
				dst[i] = uint64(w.rng.Int63()) & mask
			}
			return
		}
		for i := range dst {
			v := w.rng.Int63()
			for v > w.uniMax {
				v = w.rng.Int63()
			}
			dst[i] = w.limDiv.Mod(uint64(v))
		}
	case Zipf:
		for i := range dst {
			dst[i] = w.limDiv.Mod(w.zipf.Uint64())
		}
	case Sequential:
		for i := range dst {
			w.seqCursor++
			dst[i] = w.limDiv.Mod(w.seqCursor)
		}
	default: // Mixed
		for i := range dst {
			if (w.rng.Int63()>>32)&1 == 0 {
				dst[i] = w.limDiv.Mod(w.zipf.Uint64())
			} else {
				if w.limPow2 {
					dst[i] = uint64(w.rng.Int63()) & (w.lim - 1)
					continue
				}
				v := w.rng.Int63()
				for v > w.uniMax {
					v = w.rng.Int63()
				}
				dst[i] = w.limDiv.Mod(uint64(v))
			}
		}
	}
}

// churn unmaps one VMA and remaps it elsewhere, modelling allocator
// churn in dynamic workloads. Touched state within the VMA resets.
func (w *Workload) churn() {
	i := w.rng.Intn(len(w.vmas))
	old := w.vmas[i]
	w.vm.Guest.UnmapVMA(old)
	off := uint64(w.rng.Intn(mem.PagesPerHuge))
	w.vmas[i] = w.vm.Guest.Space.MMap(w.vmaPages*mem.PageSize, off)
	w.rebuildAddrs()
	// Repopulate the replacement up to the frontier share. VMA i's
	// pages are the addrs window starting at page i*vmaPages; with
	// fewer footprint pages than VMAs that start can lie past the
	// table, but then the share is zero.
	share := w.touched / uint64(len(w.vmas))
	if share == 0 {
		return
	}
	if share > w.vmaPages {
		share = w.vmaPages
	}
	lo := uint64(i) * w.vmaPages
	w.vm.AccessN(w.addrs[lo : lo+share])
}

// StepOne runs a single request — RequestPages accesses plus the
// gradual-growth/churn bookkeeping — and returns its cycle cost,
// without allocating. All page draws for the request come first (the
// RNG stream is untouched by accesses, so draw-then-access order
// equals interleaved order), then one AccessN over the translated
// addresses.
func (w *Workload) StepOne() uint64 {
	reqCycles := w.ServiceCycles
	if w.RequestPages > 0 {
		reqCycles += w.accessDrawn(w.RequestPages)
	}
	if w.Style != Gradual {
		return reqCycles
	}
	// Grow ~one page per request until the footprint is full.
	if w.touched < w.totalPages {
		w.growTo(w.touched + 2)
	}
	if w.ChurnRate > 0 && w.rng.Float64() < w.ChurnRate/100 {
		w.churn()
	}
	return reqCycles
}

// StepN runs n requests and returns their total cycle cost — the bulk
// entry point the engine, fleet, and Figure 2 micro loops drive
// between tick boundaries. If perReq is non-nil it must have length
// >= n and receives each request's individual cost (latency-sensitive
// measurement); otherwise Static specs drain in multi-request chunks
// sized to the draw buffers, which keeps the TLB probe + walk-cache
// loop hot and amortizes the per-request call overhead. The RNG
// stream, access order, and simulated cycle charges are identical to
// n sequential StepOne calls (TestStepNMatchesStepOne).
func (w *Workload) StepN(n int, perReq []uint64) uint64 {
	var total uint64
	if w.Style == Gradual || perReq != nil || w.RequestPages <= 0 {
		// Per-request bookkeeping (growth/churn or latency capture)
		// needs request granularity.
		for i := 0; i < n; i++ {
			c := w.StepOne()
			if perReq != nil {
				perReq[i] = c
			}
			total += c
		}
		return total
	}
	perChunk := len(w.pageBuf) / w.RequestPages
	for n > 0 {
		reqs := n
		if reqs > perChunk {
			reqs = perChunk
		}
		total += w.accessDrawn(reqs*w.RequestPages) + uint64(reqs)*w.ServiceCycles
		n -= reqs
	}
	return total
}

// accessDrawn draws k pages (k <= len(pageBuf)), translates them, and
// runs them through one AccessN, returning its cycles.
func (w *Workload) accessDrawn(k int) uint64 {
	w.drawInto(w.pageBuf[:k])
	for i, p := range w.pageBuf[:k] {
		w.addrBuf[i] = w.addrs[p]
	}
	return w.vm.AccessN(w.addrBuf[:k])
}

// Teardown unmaps the workload's VMAs (process exit).
func (w *Workload) Teardown() {
	for _, v := range w.vmas {
		w.vm.Guest.UnmapVMA(v)
	}
	w.vmas = nil
}

// Touched returns the current touched-page frontier.
func (w *Workload) Touched() uint64 { return w.touched }
