package repro

// Registry-completeness check: every registered system — figure
// systems and ablations alike — must run end-to-end and export a
// valid paperbench/v1 cell. A system registered with a broken Build
// hook, a result that loses its system label, or metrics that go
// non-finite fails here rather than deep inside a grid sweep. CI runs
// this explicitly alongside the JSON artifact validation.

import (
	"bytes"
	"testing"
)

func TestRegistryCompletenessExport(t *testing.T) {
	spec, err := WorkloadByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintMB = 32

	rep := NewBenchReport(Options{Quick: true, Seed: 1})
	var cells []BenchCell
	seen := map[string]bool{}
	for _, s := range AllSystems() {
		cfg := SingleVM(s, spec)
		cfg.VMs[0].GuestMemMB = 128
		cfg.HostMemMB, cfg.Requests, cfg.Seed = 384, 300, 1
		r := runOne(cfg)
		if r.System != s.String() {
			t.Errorf("system %s ran but reported label %q", s, r.System)
		}
		if r.Throughput <= 0 {
			t.Errorf("system %s produced no throughput: %+v", s, r)
		}
		if seen[r.System] {
			t.Errorf("duplicate system label %q in registry sweep", r.System)
		}
		seen[r.System] = true
		cells = append(cells, ResultCell("registry", 0, r))
	}
	rep.Add("registry-completeness", cells)
	if err := rep.Validate(); err != nil {
		t.Fatalf("registry sweep fails paperbench/v1 validation: %v", err)
	}

	// The cells must survive the JSON round trip intact.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded report fails validation: %v", err)
	}
	if len(back.Figures) != 1 || len(back.Figures[0].Cells) != len(AllSystems()) {
		t.Fatalf("decoded report lost cells: %+v", back.Figures)
	}
}
