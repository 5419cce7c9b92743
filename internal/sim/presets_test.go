package sim

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestSingleVMPreset pins the single-VM setting, after engine
// defaults, to its literal EngineConfig. The benchmark driver encodes
// the same configuration for its reference check, so any drift here
// also breaks the benchmark's bit-for-bit results.
func TestSingleVMPreset(t *testing.T) {
	spec := workload.Redis()
	cfg := SingleVM(THP, spec)
	cfg.Fragmented = true
	cfg.VMs[0].ReusedVM = true
	cfg.Requests = 1500
	cfg.Seed = 10
	want := EngineConfig{
		VMs: []VMConfig{{
			System: THP, Workload: spec, GuestMemMB: 1024, ReusedVM: true,
		}},
		HostMemMB:         2560,
		Fragmented:        true,
		FragTarget:        0.96,
		Requests:          1500,
		RequestsPerTick:   64,
		WarmupRequests:    1500,
		RecoverEveryTicks: 1,
		AuditEvery:        32,
		Seed:              10,
	}
	if got := cfg.withDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("SingleVM drifted:\n got %+v\nwant %+v", got, want)
	}
	if got := SingleVM(THP, spec).withDefaults(); got.Requests != 6000 || got.WarmupRequests != 6000 {
		t.Errorf("SingleVM default requests = %d, warmup %d; want 6000 each",
			got.Requests, got.WarmupRequests)
	}
}

// TestColocatedPairPreset pins the consolidation setting, after engine
// defaults, to the historical seed streams (host and guest
// fragmenters at seed+11/12/13, workloads at seed+21/22) and its
// softer fragmentation specs.
func TestColocatedPairPreset(t *testing.T) {
	a, b := workload.Masstree(), workload.SPD()
	const seed = 42
	frag := func(s int64) *FragSpec { return &FragSpec{Seed: s, Target: 0.9, Density: 0.4} }
	want := EngineConfig{
		VMs: []VMConfig{
			{System: Gemini, Workload: a, GuestMemMB: 768, WorkloadSeed: seed + 21, GuestFrag: frag(seed + 12)},
			{System: Gemini, Workload: b, GuestMemMB: 768, WorkloadSeed: seed + 22, GuestFrag: frag(seed + 13)},
		},
		HostMemMB:         2560,
		FragTarget:        0.9,
		HostFrag:          frag(seed + 11),
		Requests:          4000,
		RequestsPerTick:   64,
		WarmupRequests:    4000,
		RecoverEveryTicks: 1,
		AuditEvery:        32,
		Seed:              seed,
	}
	if got := ColocatedPair(Gemini, a, b, seed).withDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("ColocatedPair drifted:\n got %+v\nwant %+v", got, want)
	}
}
