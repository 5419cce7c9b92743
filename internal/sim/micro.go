package sim

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// MicroConfig describes one Figure 2 micro-benchmark point: a fixed
// page-size configuration at each layer and a data-set size, with
// uniformly random accesses.
type MicroConfig struct {
	// GuestHuge / HostHuge select huge pages at each layer
	// (Host-B-VM-B, Host-H-VM-B, Host-B-VM-H, Host-H-VM-H).
	GuestHuge bool
	HostHuge  bool
	// DatasetMB is the randomly accessed data-set size.
	DatasetMB int
	// Accesses is the measured access count (default 200000).
	Accesses int
	// Seed drives the access stream.
	Seed int64
}

// MicroLabel renders the paper's configuration labels.
func MicroLabel(guestHuge, hostHuge bool) string {
	g, h := "B", "B"
	if guestHuge {
		g = "H"
	}
	if hostHuge {
		h = "H"
	}
	return "Host-" + h + "-VM-" + g
}

// MicroResult reports one micro-benchmark point.
type MicroResult struct {
	Label     string
	DatasetMB int
	// CyclesPerAccess is the mean translation+access cost.
	CyclesPerAccess float64
	// Throughput is accesses per million cycles (the figure's y-axis,
	// up to scale).
	Throughput  float64
	TLBMissRate float64
}

// RunMicro executes one Figure 2 point on pristine (unfragmented)
// memory so the page-size configuration is the only variable.
func RunMicro(mc MicroConfig) MicroResult {
	if mc.Accesses == 0 {
		mc.Accesses = 200000
	}
	guestPages := uint64(mc.DatasetMB*4) << 20 >> mem.PageShift
	if min := uint64(256) << 20 >> mem.PageShift; guestPages < min {
		guestPages = min
	}
	hostPages := guestPages * 2
	m := machine.NewMachine(hostPages, machine.DefaultCosts())
	var gp, hp machine.Policy = policy.BaseOnly{}, policy.BaseOnly{}
	if mc.GuestHuge {
		gp = policy.HugeOnly{}
	}
	if mc.HostHuge {
		hp = policy.HugeOnly{}
	}
	vm := m.AddVM(guestPages, gp, hp, tlb.DefaultConfig())

	spec := workload.Micro(mc.DatasetMB)
	w := workload.New(spec, vm, mc.Seed+1)
	// Warm the TLB on the steady-state mappings. Both loops run
	// through StepN's multi-request chunks — this path is tickless,
	// so all of MicroSweep's speed comes from request batching.
	w.StepN(mc.Accesses/4/spec.RequestPages, nil)
	vm.TLB.ResetStats()
	// ceil(Accesses / RequestPages) requests, exactly as the historic
	// `for accesses < Accesses` loop issued.
	reqs := (mc.Accesses + spec.RequestPages - 1) / spec.RequestPages
	cycles := w.StepN(reqs, nil)
	accesses := uint64(reqs) * uint64(spec.RequestPages)
	ts := vm.TLB.Stats()
	m.ReleaseCaches()
	return MicroResult{
		Label:           MicroLabel(mc.GuestHuge, mc.HostHuge),
		DatasetMB:       mc.DatasetMB,
		CyclesPerAccess: float64(cycles) / float64(accesses),
		Throughput:      float64(accesses) / float64(cycles) * 1e6,
		TLBMissRate:     ts.MissRate(),
	}
}
