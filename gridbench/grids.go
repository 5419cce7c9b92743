package main

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cell is one grid cell: its identity and the fully defaulted engine
// configuration the program's runner builds for it. The traced driver
// runs that configuration phase by phase; the untraced passes never
// read it and go through the program's own runners instead.
type cell struct {
	name string
	ec   sim.EngineConfig
}

// grid is one benchmark workload: a fixed list of cells and the
// program call that runs all of them untraced.
type grid struct {
	name string
	// seeds are the simulation seeds of the run, in pass order; the
	// cells of each seed follow those of the one before.
	seeds []int64
	cells []cell
	// passSeconds is the nominal host time of one pass on the
	// reference host; a timed run makes seconds/passSeconds passes
	// (at least minPasses), so the pass count, and with it the work
	// measured, depends on -seconds alone and never on the speed of
	// the commit or the host.
	passSeconds float64
	// run executes every cell once through the program's public
	// runner with one grid worker. o carries the seed and the
	// Stats/Progress observers, which the runner calls at cell
	// boundaries only. It returns one Result per VM per cell, in
	// cell order.
	run func(o repro.Options) []sim.Result
}

// results returns how many Results a pass yields (one per VM per cell).
func (g grid) results() int {
	n := 0
	for _, c := range g.cells {
		n += len(c.ec.VMs)
	}
	return n
}

// gridFor builds the named workload's grid over the given simulation
// seeds: each seed's cells, in seed order, and a pass that runs the
// program's runner once per seed.
func gridFor(name string, seeds []int64) (grid, error) {
	var build func(seed int64) grid
	switch name {
	case "reused":
		build = reusedGrid
	case "pressure":
		build = pressureGrid
	default:
		return grid{}, fmt.Errorf("unknown workload %q (have reused, pressure)", name)
	}
	g := grid{name: name, seeds: seeds}
	var runs []func(repro.Options) []sim.Result
	for _, seed := range seeds {
		one := build(seed)
		g.cells = append(g.cells, one.cells...)
		g.passSeconds += one.passSeconds
		runs = append(runs, one.run)
	}
	g.run = func(o repro.Options) []sim.Result {
		var out []sim.Result
		for i, run := range runs {
			o.Seed = seeds[i]
			out = append(out, run(o)...)
		}
		return out
	}
	return g, nil
}

// singleVM is the engine configuration repro.Run builds for a one-VM
// Config with the given fields and every other field defaulted
// (sim.Config and sim.EngineConfig withDefaults).
func singleVM(sys repro.System, spec workload.Spec, fragmented, reused bool, requests int, seed int64) sim.EngineConfig {
	return sim.EngineConfig{
		VMs: []sim.VMConfig{{
			System: sys, Workload: spec, GuestMemMB: 1024, ReusedVM: reused,
		}},
		HostMemMB:         2560,
		Fragmented:        fragmented,
		FragTarget:        0.96,
		Requests:          requests,
		RequestsPerTick:   64,
		WarmupRequests:    requests,
		RecoverEveryTicks: 1,
		AuditEvery:        32,
		Seed:              seed,
	}
}

// reusedWorkloads are the reused-grid units: a static large store, a
// gradual churny kernel and a small set-up-bound search index.
var reusedWorkloads = []string{"redis", "cg.d", "xapian"}

// reusedGrid is repro.ReusedVM at quick scale over reusedWorkloads ×
// every figure system.
func reusedGrid(seed int64) grid {
	var cells []cell
	for _, name := range reusedWorkloads {
		spec, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		if spec.FootprintMB > 32 { // Options.Quick footprint scaling
			spec.FootprintMB /= 2
		}
		for _, sys := range repro.Systems() {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s × %s × reused", name, sys),
				ec:   singleVM(sys, spec, true, true, 1500, seed),
			})
		}
	}
	return grid{name: "reused", cells: cells, passSeconds: 17,
		run: func(o repro.Options) []sim.Result {
			o.Quick, o.Workloads, o.Parallel = true, reusedWorkloads, 1
			return repro.ReusedVM(o)
		}}
}

// pressureGrid is repro.Pressure at full scale: {THP, GEMINI, FHPM} ×
// {1.0, 1.25, 1.5} overcommit, three VMs per cell.
func pressureGrid(seed int64) grid {
	mix := []workload.Spec{workload.Redis(), workload.Masstree(), workload.Memcached()}
	var cells []cell
	for _, ratio := range repro.PressureRatios() {
		for _, sys := range []repro.System{repro.THP, repro.Gemini, repro.FHPM} {
			vms := make([]sim.VMConfig, len(mix))
			sumMB := 0
			for i, spec := range mix {
				guestMB := spec.FootprintMB + spec.FootprintMB/8
				vms[i] = sim.VMConfig{System: sys, Workload: spec, GuestMemMB: guestMB}
				sumMB += guestMB
			}
			cells = append(cells, cell{
				name: fmt.Sprintf("overcommit %.2fx × %s × overcommit", ratio, sys),
				ec: sim.EngineConfig{
					VMs:               vms,
					HostMemMB:         int(math.Ceil(float64(sumMB) / ratio)),
					Overcommit:        ratio,
					FragTarget:        0.96,
					Requests:          4000,
					RequestsPerTick:   64,
					WarmupRequests:    4000,
					RecoverEveryTicks: 1,
					AuditEvery:        32,
					Seed:              seed,
				},
			})
		}
	}
	return grid{name: "pressure", cells: cells, passSeconds: 3.5,
		run: func(o repro.Options) []sim.Result {
			o.Parallel = 1
			var out []sim.Result
			for _, row := range repro.Pressure(o) {
				out = append(out, row.Results...)
			}
			return out
		}}
}
