package repro

// Determinism and golden-snapshot coverage for the memory-elasticity
// tier (DESIGN.md §10): the pressure sweep must be bit-identical across
// runs (the swap tier, balloons, and overcommit admission all sit on
// the deterministic tick path), its quick-mode numbers are pinned in
// testdata/golden_pressure.txt, and fast-forwarding must not change a
// single field even while the swap tick is periodically busy.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// pressureEngineConfig is one overcommitted 3-VM cell, small enough for
// unit tests: guests snug to their quick-scaled footprints, host sized
// for the given overcommit ratio, audit on.
func pressureEngineConfig(system sim.System, ratio float64) sim.EngineConfig {
	specs := []workload.Spec{workload.Redis(), workload.Masstree(), workload.Memcached()}
	vms := make([]sim.VMConfig, len(specs))
	sumMB := 0
	for i, spec := range specs {
		spec.FootprintMB /= 4
		guestMB := spec.FootprintMB + spec.FootprintMB/8
		vms[i] = sim.VMConfig{System: system, Workload: spec, GuestMemMB: guestMB}
		sumMB += guestMB
	}
	hostMB := int(float64(sumMB)/ratio) + 1
	return sim.EngineConfig{
		VMs: vms, HostMemMB: hostMB, Overcommit: ratio,
		Requests: 400, Seed: 42, Audit: true,
	}
}

// pressureResult extends the legacy golden projection with the
// elasticity gauges — the fields the pressure golden exists to pin.
func pressureResult(r sim.Result) interface{} {
	return struct {
		Legacy          interface{}
		SwappedPages    uint64
		SwappedOutPages uint64
		SwappedInPages  uint64
		BalloonPages    uint64
	}{
		legacyResult(r), r.SwappedPages, r.SwappedOutPages,
		r.SwappedInPages, r.BalloonPages,
	}
}

// TestPressureDeterminism locks the elasticity tier's seed contract:
// two overcommitted runs — swap, balloons, direct reclaim and all —
// must agree on every per-VM Result field, with the cross-layer audit
// (including the swap and balloon invariants) enabled throughout.
func TestPressureDeterminism(t *testing.T) {
	for _, system := range []sim.System{sim.THP, sim.Gemini, sim.FHPM} {
		system := system
		t.Run(system.String(), func(t *testing.T) {
			t.Parallel()
			cfg := pressureEngineConfig(system, 1.5)
			first := sim.NewEngine(cfg).Run()
			second := sim.NewEngine(cfg).Run()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed, different overcommitted results:\n  first:  %+v\n  second: %+v",
					first, second)
			}
			var traffic uint64
			for _, r := range first {
				traffic += r.SwappedOutPages + r.BalloonPages
			}
			if traffic == 0 {
				t.Error("1.5x overcommit produced no swap or balloon traffic; the cell is not exercising the tier")
			}
		})
	}
}

// TestPressureFastForwardEquivalence runs one overcommitted cell with
// dense ticking and with the event-driven fast-forward clock and
// demands identical results. swapIdle is part of the machine's idle
// proof, so a fast-forward across a tick where the swap tier would
// have acted is a divergence this test catches.
func TestPressureFastForwardEquivalence(t *testing.T) {
	cfg := pressureEngineConfig(sim.Gemini, 1.25)
	fast := sim.NewEngine(cfg).Run()
	cfg.DisableFastForward = true
	dense := sim.NewEngine(cfg).Run()
	if !reflect.DeepEqual(fast, dense) {
		t.Errorf("fast-forward changed overcommitted results:\n  fast:  %+v\n  dense: %+v", fast, dense)
	}
}

// TestGoldenPressureSnapshot pins the exact numbers of the unit-scale
// pressure cells across all three systems and ratios, elasticity
// gauges included; regenerate with
//
//	go test -run TestGoldenPressureSnapshot -update .
//
// after confirming a behavior change is intended.
func TestGoldenPressureSnapshot(t *testing.T) {
	var b strings.Builder
	for _, system := range []sim.System{sim.THP, sim.Gemini, sim.FHPM} {
		for _, ratio := range []float64{1.0, 1.25, 1.5} {
			rs := sim.NewEngine(pressureEngineConfig(system, ratio)).Run()
			for i, r := range rs {
				fmt.Fprintf(&b, "%s@%.2fx vm%d %+v\n", system, ratio, i, pressureResult(r))
			}
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden_pressure.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("pressure results drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intended, regenerate with -update.", got, want)
	}
}

// TestOvercommitValidation pins the config gate: ratios inside (0, 1)
// are rejected, a pressure policy without overcommit is rejected, and
// ratio 1.0 is accepted (it arms the tier with unchanged admission).
func TestOvercommitValidation(t *testing.T) {
	base := pressureEngineConfig(sim.THP, 1.0)
	if err := base.Validate(); err != nil {
		t.Fatalf("ratio 1.0 rejected: %v", err)
	}
	bad := base
	bad.Overcommit = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("ratio 0.5 accepted")
	}
	bad = base
	bad.Overcommit = 0
	bad.PressurePolicy = "lru-heat"
	if err := bad.Validate(); err == nil {
		t.Error("pressure policy without overcommit accepted")
	}
	bad = base
	bad.PressurePolicy = "no-such-policy"
	if err := bad.Validate(); err == nil {
		t.Error("unknown pressure policy accepted")
	}
}

// TestPressureSeed4GeminiCompletes is the regression test for a guest
// out-of-memory panic in the full-scale pressure sweep: at seed 4 the
// GEMINI × 1.0× cell drove a guest's allocator empty while Gemini's
// open bookings held about a hundred huge regions of reserved but
// unclaimed frames, and with the balloon already deflated the demand
// fault panicked. The guest now releases bookings before giving up;
// the cell must run to completion with every invariant audit clean.
func TestPressureSeed4GeminiCompletes(t *testing.T) {
	o := Options{Seed: 4, Audit: true}
	for _, r := range o.run(pressureCell(o, Gemini, 1.0), nil) {
		if r.Throughput <= 0 {
			t.Errorf("VM %s produced no throughput: %+v", r.Workload, r)
		}
	}
}
