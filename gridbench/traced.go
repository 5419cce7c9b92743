package main

// The traced driver: sim.Engine.Run's phase order, rebuilt from the
// exported calls of each layer so the benchmark can time every call
// into a layer from its own code without changing the program. It
// must reproduce every scalar Result field of the untraced run (the
// equivalence check in main.go); otherwise its per-layer numbers would
// describe a different program. Work inside machine.Machine.Tick is
// out of reach of these spans and is attributed by the CPU profile
// fold (profile.go) instead.

import (
	"time"

	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sysreg"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Engine phase pacing (sim/engine.go settleTicks, predecessorSettleTicks).
const (
	settleTicks            = 80
	predecessorSettleTicks = 40
)

// layerTimes accumulates host time spent in calls into each layer,
// in nanoseconds, and the layer counts read at cell end.
type layerTimes struct {
	build, fragment, release, predecessor, teardown          int64
	warmup, settle, measure, populate, step, tick, ff, final int64
	measureStep                                              int64

	ticksDense, ticksSkipped uint64
	requests, accesses       uint64
	measureAccesses          uint64

	tlb                              tlb.Stats
	faults, hugeFaults               uint64
	promotions, failedPromotions     uint64
	compacted, swappedOut, swappedIn uint64
	geminiScans                      uint64
}

// span is one timed phase of one traced cell, relative to the start
// of the traced pass.
type span struct {
	Cell    string `json:"cell"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer runs traced cells and keeps their spans in memory.
type tracer struct {
	t0    time.Time
	lt    layerTimes
	spans []span
}

// timed runs fn and adds its duration to *acc.
func timed(acc *int64, fn func()) {
	t := time.Now()
	fn()
	*acc += int64(time.Since(t))
}

// tvm is one VM of a traced engine run (sim.engineVM).
type tvm struct {
	cfg   sim.VMConfig
	vm    *machine.VM
	gp    machine.Policy
	coord sysreg.Coordinator

	w            *workload.Workload
	lat          *metrics.Histogram
	fg, ops, acc uint64
	bg0, migBase uint64
}

// tengine is one traced engine run.
type tengine struct {
	t   *tracer
	cfg sim.EngineConfig
	m   *machine.Machine
	vms []*tvm

	fragmenters []*frag.Fragmenter
	ticks       int
}

// runCell runs one cell's fully defaulted engine configuration phase
// by phase and returns its per-VM results.
func (t *tracer) runCell(c cell) []sim.Result {
	e := &tengine{t: t, cfg: c.ec}
	cellStart := time.Now()
	phase := func(name string, acc *int64, fn func()) {
		s := time.Now()
		fn()
		d := time.Since(s)
		*acc += int64(d)
		t.spans = append(t.spans, span{Cell: c.name, Name: name, Parent: "cell",
			StartUS: s.Sub(t.t0).Microseconds(), EndUS: s.Add(d).Sub(t.t0).Microseconds()})
	}
	phase("build", &t.lt.build, e.build)
	// Phases that make no call into a layer for this cell get no span,
	// so their metrics read exactly 0 on workloads that skip them.
	if c.ec.Fragmented {
		phase("fragment", &t.lt.fragment, e.fragmentPhase)
	}
	for _, vc := range c.ec.VMs {
		if vc.ReusedVM {
			phase("predecessor", &t.lt.predecessor, e.predecessorPhase)
			break
		}
	}
	phase("warmup", &t.lt.warmup, e.warmupPhase)
	phase("settle", &t.lt.settle, func() { e.settle(settleTicks) })
	phase("measure", &t.lt.measure, e.measurePhase)
	var out []sim.Result
	phase("results", &t.lt.final, func() {
		e.m.ReleaseCaches()
		out = e.results()
	})
	e.count()
	t.spans = append(t.spans, span{Cell: c.name, Name: "cell",
		StartUS: cellStart.Sub(t.t0).Microseconds(), EndUS: time.Since(t.t0).Microseconds()})
	return out
}

// build is sim.NewEngine: host, VMs, coordinators, elasticity tier.
func (e *tengine) build() {
	hostPages := uint64(e.cfg.HostMemMB) << 20 >> mem.PageShift
	e.m = machine.NewMachine(hostPages, machine.DefaultCosts())
	for _, vc := range e.cfg.VMs {
		gp, hp, coord := sysreg.Build(vc.System)
		vm := e.m.AddVMSetup(machine.VMSetup{
			GuestPages:  uint64(vc.GuestMemMB) << 20 >> mem.PageShift,
			GuestPolicy: gp,
			HostPolicy:  hp,
			TLB:         tlb.DefaultConfig(),
			Translation: sysreg.NewTranslation(vc.System),
		})
		if coord != nil {
			coord.Attach(vm)
		}
		e.vms = append(e.vms, &tvm{cfg: vc, vm: vm, gp: gp, coord: coord})
	}
	if e.cfg.Overcommit >= 1 {
		e.m.EnableSwap(machine.SwapConfig{Policy: e.cfg.PressurePolicy})
		for _, ev := range e.vms {
			ev.vm.Balloon = core.NewBalloon(ev.vm)
		}
	}
}

func (e *tengine) vmSeedBase(i int) int64 { return e.cfg.Seed + 1000*int64(i) }

// tick is one dense daemon tick plus fragmentation recovery
// (sim.recovery.tick; benchmark runs are unaudited and untraced).
func (e *tengine) tick() {
	timed(&e.t.lt.tick, e.m.Tick)
	e.t.lt.ticksDense++
	e.ticks++
	if len(e.fragmenters) > 0 && e.cfg.RecoverEveryTicks > 0 && e.ticks%e.cfg.RecoverEveryTicks == 0 {
		timed(&e.t.lt.release, func() {
			for _, f := range e.fragmenters {
				f.ReleaseRegions(1)
			}
		})
	}
}

func (e *tengine) pendingRelease() bool {
	for _, f := range e.fragmenters {
		if f.HeldRegions() > 0 {
			return true
		}
	}
	return false
}

// idleTicks is sim.recovery.idleTicks without sampler or audit
// deadlines.
func (e *tengine) idleTicks(limit int) int {
	if e.cfg.DisableFastForward || limit <= 0 {
		return 0
	}
	k := e.m.IdleHorizon(limit)
	if k <= 0 {
		return 0
	}
	if every := e.cfg.RecoverEveryTicks; every > 0 && e.pendingRelease() {
		if gap := every - e.ticks%every - 1; k > gap {
			k = gap
		}
	}
	return k
}

// settle is sim.Engine.settle: fast-forward over provably idle ticks.
func (e *tengine) settle(ticks int) {
	for i := 0; i < ticks; {
		var k int
		timed(&e.t.lt.ff, func() {
			if k = e.idleTicks(ticks - i); k > 0 {
				e.m.AdvanceTicks(k)
			}
		})
		if k > 0 {
			e.ticks += k
			e.t.lt.ticksSkipped += uint64(k)
			i += k
			continue
		}
		e.tick()
		i++
	}
}

func (e *tengine) fragmentPhase() {
	hostSpec := e.cfg.HostFrag
	if hostSpec == nil {
		hostSpec = &sim.FragSpec{Seed: e.cfg.Seed + 101, Target: e.cfg.FragTarget, Density: 0.55}
	}
	hf := frag.New(e.m.HostBuddy, hostSpec.Seed)
	hf.FragmentTo(hostSpec.Target, hostSpec.Density)
	e.fragmenters = []*frag.Fragmenter{hf}
	for i, ev := range e.vms {
		gs := ev.cfg.GuestFrag
		if gs == nil {
			gs = &sim.FragSpec{Seed: e.vmSeedBase(i) + 202, Target: e.cfg.FragTarget, Density: 0.5}
		}
		gf := frag.New(ev.vm.Guest.Buddy, gs.Seed)
		gf.FragmentTo(gs.Target, gs.Density)
		e.fragmenters = append(e.fragmenters, gf)
	}
}

// newWorkload is workload.New, timed as population.
func (e *tengine) newWorkload(spec workload.Spec, vm *machine.VM, seed int64) *workload.Workload {
	var w *workload.Workload
	timed(&e.t.lt.populate, func() { w = workload.New(spec, vm, seed) })
	return w
}

// stepN is Workload.StepN, timed, with request and access counts.
func (e *tengine) stepN(w *workload.Workload, n int, perReq []uint64) uint64 {
	s := time.Now()
	c := w.StepN(n, perReq)
	e.t.lt.step += int64(time.Since(s))
	e.t.lt.requests += uint64(n)
	e.t.lt.accesses += uint64(n) * uint64(w.RequestPages)
	return c
}

func (e *tengine) predecessorPhase() {
	for i, ev := range e.vms {
		if !ev.cfg.ReusedVM {
			continue
		}
		spec := workload.SVM()
		spec.FootprintMB = ev.cfg.GuestMemMB * 2 / 5
		w := e.newWorkload(spec, ev.vm, e.vmSeedBase(i)+303)
		p := pacer{n: e.cfg.Requests / 4, per: e.cfg.RequestsPerTick}
		for {
			b, tick := p.next()
			if b == 0 {
				break
			}
			e.stepN(w, b, nil)
			if tick {
				e.tick()
			}
		}
		e.settle(predecessorSettleTicks)
		timed(&e.t.lt.teardown, func() {
			w.Teardown()
			ev.vm.ResetGuestProcess()
		})
		e.tick()
	}
}

// stepInterleaved runs b requests per VM, one request per VM per
// iteration, through StepOne (the N-VM path of sim.Engine).
func (e *tengine) stepInterleaved(b int, measure bool) {
	s := time.Now()
	for j := 0; j < b; j++ {
		for _, ev := range e.vms {
			c := ev.w.StepOne()
			if measure {
				ev.fg += c
				ev.ops++
				ev.acc += uint64(ev.cfg.Workload.RequestPages)
				if ev.cfg.Workload.LatencySensitive {
					ev.lat.Record(float64(c))
				}
			}
		}
	}
	d := int64(time.Since(s))
	e.t.lt.step += d
	if measure {
		e.t.lt.measureStep += d
	}
	for _, ev := range e.vms {
		e.t.lt.requests += uint64(b)
		e.t.lt.accesses += uint64(b) * uint64(ev.cfg.Workload.RequestPages)
		if measure {
			e.t.lt.measureAccesses += uint64(b) * uint64(ev.cfg.Workload.RequestPages)
		}
	}
}

func (e *tengine) warmupPhase() {
	for i, ev := range e.vms {
		seed := ev.cfg.WorkloadSeed
		if seed == 0 {
			seed = e.vmSeedBase(i) + 404
		}
		ev.w = e.newWorkload(ev.cfg.Workload, ev.vm, seed)
		ev.migBase = ev.vm.Guest.Stats.MigratedPages + ev.vm.EPT.Stats.MigratedPages
	}
	p := pacer{n: e.cfg.WarmupRequests, per: e.cfg.RequestsPerTick}
	for {
		b, tick := p.next()
		if b == 0 {
			break
		}
		if len(e.vms) == 1 {
			e.stepN(e.vms[0].w, b, nil)
		} else {
			e.stepInterleaved(b, false)
		}
		if tick {
			e.tick()
		}
	}
}

func (e *tengine) measurePhase() {
	for _, ev := range e.vms {
		ev.vm.TLB.ResetStats()
	}
	for _, ev := range e.vms {
		ev.lat = metrics.NewHistogram()
		ev.bg0 = ev.vm.Guest.Stats.BackgroundCycles + ev.vm.EPT.Stats.BackgroundCycles
	}
	single := len(e.vms) == 1
	var latBuf []uint64
	if single && e.vms[0].cfg.Workload.LatencySensitive {
		latBuf = make([]uint64, e.cfg.RequestsPerTick)
	}
	p := pacer{n: e.cfg.Requests, per: e.cfg.RequestsPerTick}
	for {
		b, tick := p.next()
		if b == 0 {
			break
		}
		if single {
			ev := e.vms[0]
			s := time.Now()
			if latBuf != nil {
				ev.fg += e.stepN(ev.w, b, latBuf[:b])
				for _, c := range latBuf[:b] {
					ev.lat.Record(float64(c))
				}
			} else {
				ev.fg += e.stepN(ev.w, b, nil)
			}
			e.t.lt.measureStep += int64(time.Since(s))
			ev.ops += uint64(b)
			ev.acc += uint64(b) * uint64(ev.cfg.Workload.RequestPages)
			e.t.lt.measureAccesses += uint64(b) * uint64(ev.cfg.Workload.RequestPages)
		} else {
			e.stepInterleaved(b, true)
		}
		if tick {
			e.tick()
		}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// results is sim.Engine.results for an untraced run.
func (e *tengine) results() []sim.Result {
	out := make([]sim.Result, len(e.vms))
	for i, ev := range e.vms {
		vm := ev.vm
		ts := vm.TLB.Stats()
		a := vm.Alignment()
		res := sim.Result{
			System:              ev.cfg.System.String(),
			Workload:            ev.cfg.Workload.Name,
			Throughput:          safeDiv(float64(ev.ops), float64(ev.fg)) * 1e6,
			TLBMissesPerKAccess: safeDiv(float64(ts.Misses), float64(ev.acc)) * 1000,
			WalkCyclesPerAccess: safeDiv(float64(ts.WalkCycles), float64(ev.acc)),
			AlignedRate:         a.Rate(),
			GuestHuge:           a.GuestHuge,
			HostHuge:            a.HostHuge,
			GuestFMFI:           vm.Guest.Buddy.FMFI(mem.HugeOrder),
			MigratedPages:       vm.Guest.Stats.MigratedPages + vm.EPT.Stats.MigratedPages - ev.migBase,
			BackgroundCycles:    vm.Guest.Stats.BackgroundCycles + vm.EPT.Stats.BackgroundCycles - ev.bg0,
			Ticks:               e.m.Ticks,
		}
		if mapped := vm.Guest.MappedPages(); mapped > 0 {
			res.HugeCoverage = float64(vm.Guest.Table.Mapped2M()*mem.PagesPerHuge) / float64(mapped)
		}
		res.SwappedPages = vm.EPT.SwappedPages()
		res.SwappedOutPages = vm.EPT.Stats.SwappedOutPages
		res.SwappedInPages = vm.EPT.Stats.SwappedInPages
		if vm.Balloon != nil {
			res.BalloonPages = vm.Balloon.Inflated()
		}
		if ev.cfg.Workload.LatencySensitive {
			res.MeanLatency = ev.lat.Mean()
			res.P99Latency = ev.lat.P99()
		}
		if br, ok := ev.gp.(interface{ BucketReuseRate() (float64, bool) }); ok {
			if rate, any := br.BucketReuseRate(); any {
				res.BucketReuseRate = rate
			}
		}
		out[i] = res
	}
	return out
}

// count adds the cell's end-of-run layer counters to the totals. TLB
// statistics cover the measure phase (the engine resets them there);
// layer statistics cover the whole cell.
func (e *tengine) count() {
	lt := &e.t.lt
	for _, ev := range e.vms {
		s := ev.vm.TLB.Stats()
		lt.tlb.Hits += s.Hits
		lt.tlb.Misses += s.Misses
		lt.tlb.WalkCycles += s.WalkCycles
		lt.tlb.PWCHits += s.PWCHits
		lt.tlb.PWCMisses += s.PWCMisses
		for _, L := range []*machine.Layer{ev.vm.Guest, ev.vm.EPT} {
			st := L.Stats
			lt.faults += st.Faults
			lt.hugeFaults += st.HugeFaults
			lt.promotions += st.InPlacePromotions + st.MigrationPromotions
			lt.failedPromotions += st.FailedPromotions
			lt.compacted += st.CompactedRegions
		}
		lt.swappedOut += ev.vm.EPT.Stats.SwappedOutPages
		lt.swappedIn += ev.vm.EPT.Stats.SwappedInPages
		if g, ok := ev.coord.(*core.Gemini); ok {
			lt.geminiScans += g.ScanCount
		}
	}
}

// pacer is sim.pacer: request batches between daemon ticks, with a
// tick after request i whenever i%per == 0.
type pacer struct {
	n, per, done int
}

func (p *pacer) next() (batch int, tick bool) {
	if p.done >= p.n {
		return 0, false
	}
	batch = 1
	if p.done > 0 {
		batch = p.per
		if p.done+batch > p.n {
			batch = p.n - p.done
		}
	}
	last := p.done + batch - 1
	p.done += batch
	return batch, last%p.per == 0
}
