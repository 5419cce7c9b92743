// Package sim assembles machine, policies, workloads, and metrics
// into runnable experiments matching the paper's evaluation settings:
// clean-slate VM (§6.2), reused VM (§6.3), fragmented or pristine
// memory, and collocated VMs (§6.5). Each run is deterministic for a
// given seed.
//
// Every setting is an EngineConfig run by the unified N-VM Engine
// (engine.go): NewEngine(cfg).Run(). Two presets build the paper's
// settings (DESIGN.md §2): SingleVM, a 1024 MB guest on a 2560 MB host
// measured over 6000 requests, and ColocatedPair, two 768 MB guests on
// a 2560 MB host fragmented toward FMFI 0.9 at density 0.4 on the
// historical consolidation seed streams. Callers adjust the returned
// configuration (Fragmented, ReusedVM, Requests, Seed, Audit, Trace,
// ...) before building the engine.
//
// See DESIGN.md §3 (per-experiment index) for which entry point backs
// each figure and DESIGN.md §5 for the determinism contract.
package sim

import (
	"fmt"

	"repro/internal/audit"
	_ "repro/internal/core" // registers GEMINI and its ablations
	"repro/internal/frag"
	"repro/internal/machine"
	_ "repro/internal/policy" // registers the baselines, FHPM, Segmentation
	"repro/internal/sysreg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// System identifies one registered page-management system. The
// registry (package sysreg) owns the name set and ordering; this
// package only pins handles for the systems its tests and callers
// reference by identifier.
type System = sysreg.System

// Registered system handles, in registry rank order. These resolve
// after every imported package's registrations have run, so they are
// ordinary package variables rather than constants.
var (
	// HostBVMB uses base pages at both layers.
	HostBVMB = sysreg.MustByName("Host-B-VM-B")
	// Misalignment backs base-page guests with huge host pages only.
	Misalignment = sysreg.MustByName("Misalignment")
	// THP runs Linux transparent huge pages at both layers.
	THP = sysreg.MustByName("THP")
	// CAPaging runs contiguity-aware paging at both layers.
	CAPaging = sysreg.MustByName("CA-paging")
	// Ranger runs Translation Ranger at both layers.
	Ranger = sysreg.MustByName("Trans-ranger")
	// HawkEye runs HawkEye at both layers.
	HawkEye = sysreg.MustByName("HawkEye")
	// Ingens runs Ingens at both layers.
	Ingens = sysreg.MustByName("Ingens")
	// Gemini is the paper's system.
	Gemini = sysreg.MustByName("GEMINI")
	// GeminiNoBucket disables the huge bucket (EMA/HB only), the
	// first half of the Figure 16 breakdown.
	GeminiNoBucket = sysreg.MustByName("GEMINI-EMA/HB")
	// GeminiBucketOnly disables EMA/HB/promoter (bucket only), the
	// second half of the Figure 16 breakdown.
	GeminiBucketOnly = sysreg.MustByName("GEMINI-bucket")
	// GeminiStaticTimeout freezes the booking timeout (ablation).
	GeminiStaticTimeout = sysreg.MustByName("GEMINI-static-timeout")
	// GeminiNoPrealloc disables huge preallocation (ablation).
	GeminiNoPrealloc = sysreg.MustByName("GEMINI-no-prealloc")
	// FHPM promotes at fine subregion granularity in the guest and
	// drives host coalescing explicitly (Li et al., PAPERS.md).
	FHPM = sysreg.MustByName("FHPM")
	// Segmentation translates through a flat segment table: depth-1
	// walks, costly VMA growth (Teabe et al., PAPERS.md).
	Segmentation = sysreg.MustByName("Segmentation")
)

// Systems lists the evaluated figure systems in registry rank order:
// the paper's eight plus every figure system registered since.
func Systems() []System { return sysreg.Figure() }

// AllSystems lists every registered system, ablations included.
func AllSystems() []System { return sysreg.All() }

// SystemByName resolves a display name; unknown names get an error
// listing every valid name.
func SystemByName(name string) (System, error) { return sysreg.ByName(name) }

// SingleVM returns the paper's single-VM setting (§6.2/§6.3,
// DESIGN.md §2): one 1024 MB guest running spec under sys on a 2560 MB
// host, measured over 6000 requests. Every other field takes the
// engine default: as many warmup requests as measured ones, 64 requests
// per daemon tick, fragmentation toward FMFI 0.96, recovery every tick,
// audits every 32 ticks. Set Fragmented, VMs[0].ReusedVM, Requests,
// Seed, Audit, Trace and the like on the result.
func SingleVM(sys System, spec workload.Spec) EngineConfig {
	return EngineConfig{
		VMs:       []VMConfig{{System: sys, Workload: spec, GuestMemMB: 1024}},
		HostMemMB: 2560,
		Requests:  6000,
	}
}

// ColocatedPair returns the paper's consolidation setting (§6.5,
// DESIGN.md §2): workloads a and b in two 768 MB guests under sys on a
// 2560 MB host, measured over 4000 requests. When Fragmented, the host
// and both guests fragment toward FMFI 0.9 at density 0.4. The seed
// streams are the historical consolidation ones rather than the
// engine's derived streams: the host and guest fragmenters draw from
// seed+11, +12 and +13, the workloads from seed+21 and +22. These are
// fixed when the preset is built, so changing Seed afterwards moves
// only the predecessor streams.
func ColocatedPair(sys System, a, b workload.Spec, seed int64) EngineConfig {
	const target, density = 0.9, 0.4
	vm := func(spec workload.Spec, workloadSeed, fragSeed int64) VMConfig {
		return VMConfig{
			System: sys, Workload: spec, GuestMemMB: 768, WorkloadSeed: workloadSeed,
			GuestFrag: &FragSpec{Seed: fragSeed, Target: target, Density: density},
		}
	}
	return EngineConfig{
		VMs:        []VMConfig{vm(a, seed+21, seed+12), vm(b, seed+22, seed+13)},
		HostMemMB:  2560,
		FragTarget: target,
		HostFrag:   &FragSpec{Seed: seed + 11, Target: target, Density: density},
		Requests:   4000,
		Seed:       seed,
	}
}

// Result reports one run.
type Result struct {
	System   string
	Workload string

	// Throughput is requests per million foreground cycles.
	Throughput float64
	// MeanLatency and P99Latency are request latencies in cycles
	// (zero for non-latency-reporting workloads).
	MeanLatency float64
	P99Latency  float64

	// TLBMissesPerKAccess is TLB misses per thousand accesses.
	TLBMissesPerKAccess float64
	// WalkCyclesPerAccess is mean page-walk cycles per access.
	WalkCyclesPerAccess float64

	// AlignedRate is the fraction of huge pages that are well-aligned
	// at the end of the run (the Tables 1/3/4 metric).
	AlignedRate float64
	GuestHuge   uint64
	HostHuge    uint64

	// GuestFMFI is the final guest fragmentation index.
	GuestFMFI float64
	// MigratedPages counts migration work across both layers.
	MigratedPages uint64
	// BackgroundCycles counts daemon work across both layers.
	BackgroundCycles uint64
	// BucketReuseRate is reused/taken for Gemini's bucket (§6.3).
	BucketReuseRate float64

	// HugeCoverage is the fraction of the VM's mapped guest pages
	// backed by huge mappings at the end of the run.
	HugeCoverage float64

	// Elasticity gauges (DESIGN.md §10); all zero unless
	// EngineConfig.Overcommit armed the swap tier. SwappedPages and
	// BalloonPages are end-of-run gauges (pages currently on the swap
	// device / currently donated through the balloon); SwappedOutPages
	// and SwappedInPages are cumulative EPT swap traffic.
	SwappedPages    uint64
	SwappedOutPages uint64
	SwappedInPages  uint64
	BalloonPages    uint64
	// Ticks is the number of machine ticks the run executed; telemetry
	// uses it for ticks-per-second run-stats.
	Ticks uint64

	// Timeline and Events carry the flight-recorder data when the run
	// was traced (EngineConfig.Trace); both are nil for untraced runs.
	// Timeline is the decimated gauge series (one row per sampled tick
	// per scope, host rows VM == -1); Events is the
	// retained structured event stream in tick order. Both reflect
	// everything in the run's recorder: a run recording into a private
	// shard sees only its own data, while runs appending sequentially
	// to one shared recorder see everything recorded so far.
	Timeline []trace.Sample
	Events   []trace.Event
}

// recovery advances the daemons and lets fragmented memory recover
// slowly, modelling background compaction and other tenants freeing
// memory: this is what makes huge pages form asynchronously (and so
// largely independently at the two layers) rather than all at first
// touch.
type recovery struct {
	fragmenters []*frag.Fragmenter
	every       int
	ticks       int

	// auditors, when set, undergo a full invariant audit every
	// auditEvery ticks (EngineConfig.Audit).
	auditors   []audit.Auditable
	auditEvery int

	// sampler, when set, captures flight-recorder gauge samples after
	// the machine tick (EngineConfig.Trace). Nil for untraced runs.
	sampler func()
	// samplerNext reports the sampler's next possible capture tick
	// (trace.Recorder.NextSampleTick) so fast-forward never jumps over
	// a tick the sampler would have recorded. Nil for untraced runs.
	samplerNext func(after uint64) uint64
	// disableFF pins the run to dense ticking
	// (EngineConfig.DisableFastForward).
	disableFF bool
}

func (r *recovery) tick(m *machine.Machine) {
	m.Tick()
	r.ticks++
	if r.every > 0 && r.ticks%r.every == 0 {
		for _, f := range r.fragmenters {
			f.ReleaseRegions(1)
		}
	}
	if r.sampler != nil {
		r.sampler()
	}
	if r.auditEvery > 0 && r.ticks%r.auditEvery == 0 {
		r.audit()
	}
}

// pendingRelease reports whether any fragmenter still holds regions,
// i.e. whether a future release boundary will actually free memory.
// Drained fragmenters stop constraining fast-forward.
func (r *recovery) pendingRelease() bool {
	for _, f := range r.fragmenters {
		if f.HeldRegions() > 0 {
			return true
		}
	}
	return false
}

// idleTicks reports how many upcoming ticks can be replayed in closed
// form instead of densely, capped at limit — the engine-level deadline
// query behind event-driven fast-forward (DESIGN.md §7.4). Zero means
// the next tick must run densely. The horizon is the minimum over
// every deadline source:
//
//   - the machine: compaction/reclaim pressure and each policy's
//     promotion-period deadline (machine.Machine.IdleHorizon);
//   - fragmentation recovery: a release boundary with regions still
//     held frees memory, so it (and nothing before it) may be skipped;
//   - the trace sampler: a tick the sampler could capture must run
//     densely (a skipped SampleTick that would return false is
//     unobservable, one that would return true is not);
//   - the periodic audit: boundaries run densely so audited runs keep
//     their exact audit schedule.
//
// Every source is conservative: underestimating the horizon costs one
// dense tick that then does nothing, which is byte-identical.
func (r *recovery) idleTicks(m *machine.Machine, limit int) int {
	if r.disableFF || limit <= 0 {
		return 0
	}
	k := m.IdleHorizon(limit)
	if k <= 0 {
		return 0
	}
	if r.every > 0 && r.pendingRelease() {
		if gap := r.every - r.ticks%r.every - 1; k > gap {
			k = gap
		}
	}
	if r.samplerNext != nil {
		next := r.samplerNext(m.Ticks)
		if gap := int(next - m.Ticks - 1); k > gap {
			k = gap
		}
	}
	if r.auditEvery > 0 && len(r.auditors) > 0 {
		if gap := r.auditEvery - r.ticks%r.auditEvery - 1; k > gap {
			k = gap
		}
	}
	return k
}

// skip advances the tick clock over k ticks idleTicks just proved
// idle: machine state moves in closed form (machine.AdvanceTicks) and
// the recovery tick counter stays in lockstep with m.Ticks, so release
// and audit boundaries land on the same tick numbers as dense ticking.
func (r *recovery) skip(m *machine.Machine, k int) {
	m.AdvanceTicks(k)
	r.ticks += k
}

// audit runs the configured invariant auditors, panicking with the
// full report on any violation: a corrupted simulation must fail
// loudly rather than skew results.
func (r *recovery) audit() {
	if vs := audit.Run(r.auditors...); len(vs) != 0 {
		panic("sim: audit after tick " + fmt.Sprint(r.ticks) + ": " + audit.Report(vs))
	}
}
