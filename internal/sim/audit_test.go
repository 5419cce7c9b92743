package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestAuditCoversFragmenters checks that an audited fragmented run
// audits its fragmenters: freeing a pinned host frame behind the host
// fragmenter's back must fail the next audit, naming the fragmenter's
// invariant.
func TestAuditCoversFragmenters(t *testing.T) {
	cfg := smallCfg(Gemini, workload.Masstree())
	cfg.Fragmented, cfg.Audit = true, true
	e := NewEngine(cfg)
	e.fragmentPhase()
	if got, want := len(e.rec.auditors), 1+len(e.rec.fragmenters); got < want {
		t.Fatalf("%d auditors, want >= %d (the machine and every fragmenter)", got, want)
	}
	e.rec.audit() // clean after fragmentation

	// No workload has run, so the host's allocated frames are exactly
	// the host fragmenter's pins.
	host := e.m.HostBuddy
	fr := uint64(0)
	for host.FrameFree(fr) {
		fr++
	}
	host.Free(fr, 0)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "frag: pinned-frame-free") {
			t.Fatalf("audit after corruption: %s", msg)
		}
	}()
	e.rec.audit()
}
