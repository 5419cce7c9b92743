package repro

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAuditedGeminiRun drives the paper's headline setting — Gemini on
// fragmented memory, clean slate — with the full cross-layer invariant
// audit enabled. The engine panics on the first violation, so completing
// is the assertion: every audit over the whole run found the buddy
// allocator, page tables, TLB, and coordinator mutually consistent.
func TestAuditedGeminiRun(t *testing.T) {
	spec := workload.Redis()
	spec.FootprintMB /= 2
	cfg := sim.SingleVM(sim.Gemini, spec)
	cfg.Fragmented, cfg.Requests, cfg.Seed = true, 1000, 7
	cfg.Audit, cfg.AuditEvery = true, 8
	res := runOne(cfg)
	if res.Throughput <= 0 {
		t.Fatalf("audited run produced no throughput: %+v", res)
	}
}

// TestAuditedColocatedRun exercises the two-VM consolidation path
// (shared host allocator, two coordinators) under the same audit.
func TestAuditedColocatedRun(t *testing.T) {
	a, b := workload.Specjbb(), workload.Shore()
	a.FootprintMB /= 4
	b.FootprintMB /= 4
	cfg := sim.ColocatedPair(sim.Gemini, a, b, 7)
	cfg.Fragmented, cfg.Requests = true, 600
	cfg.Audit, cfg.AuditEvery = true, 8
	rs := sim.NewEngine(cfg).Run()
	ra, rb := rs[0], rs[1]
	if ra.Throughput <= 0 || rb.Throughput <= 0 {
		t.Fatalf("audited collocated run produced no throughput: %+v / %+v", ra, rb)
	}
}
