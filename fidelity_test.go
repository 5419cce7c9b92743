package repro

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sysreg"
)

// Shape-fidelity regression locks for the DESIGN.md §4 targets. These
// pin relative orderings from the paper's evaluation, not absolute
// numbers, so they survive cost-model recalibration but fail if a
// policy change inverts a headline comparison.

// fidelityRows runs the fragmented clean-slate sweep (all eight
// systems, one TLB-sensitive workload) once and indexes it by system.
func fidelityRows(t *testing.T) map[string]Result {
	t.Helper()
	rows := Motivation(Options{Quick: true, Workloads: []string{"canneal"}})
	bySystem := make(map[string]Result, len(rows))
	for _, r := range rows {
		bySystem[r.System] = r
	}
	for _, s := range Systems() {
		if _, ok := bySystem[s.String()]; !ok {
			t.Fatalf("sweep missing system %s", s)
		}
	}
	return bySystem
}

// TestFidelityGeminiAlignmentDominates: on a fragmented clean slate,
// Gemini's well-aligned rate beats every uncoordinated system — the
// paper's central claim (Table 3 shape).
func TestFidelityGeminiAlignmentDominates(t *testing.T) {
	bySystem := fidelityRows(t)
	gem := bySystem["GEMINI"]
	for name, r := range bySystem {
		if name == "GEMINI" {
			continue
		}
		if sys, err := SystemByName(name); err == nil && sysreg.Def(sys).Coordinated {
			// FHPM coordinates the two layers too; the claim is about
			// uncoordinated systems only.
			continue
		}
		if gem.AlignedRate < r.AlignedRate {
			t.Errorf("Gemini aligned rate %.3f below %s's %.3f",
				gem.AlignedRate, name, r.AlignedRate)
		}
	}
}

// TestFidelityRangerMigrationCost: Ranger trades throughput for
// alignment — host-side migration overhead leaves it below the
// do-nothing Host-B-VM-B baseline (DESIGN.md §4, Figure 5 shape).
func TestFidelityRangerMigrationCost(t *testing.T) {
	bySystem := fidelityRows(t)
	ranger, base := bySystem["Ranger"], bySystem["Host-B-VM-B"]
	if ranger.Throughput >= base.Throughput {
		t.Errorf("Ranger throughput %.2f not below Host-B-VM-B %.2f",
			ranger.Throughput, base.Throughput)
	}
}

// TestFidelityMisalignmentNearBase: at a large footprint, misaligned
// huge pages (Host-H-VM-B) perform like base pages — the huge TLB
// reach is wasted and only walk savings remain (Figure 2 shape).
func TestFidelityMisalignmentNearBase(t *testing.T) {
	const dataset = 128
	base := sim.RunMicro(sim.MicroConfig{DatasetMB: dataset, Seed: 1})
	mis := sim.RunMicro(sim.MicroConfig{HostHuge: true, DatasetMB: dataset, Seed: 1})
	ratio := mis.Throughput / base.Throughput
	if ratio < 0.8 || ratio > 1.8 {
		t.Errorf("misaligned/base throughput ratio = %.3f, want ~1 (walk savings only)", ratio)
	}
}
