package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// runTraced runs one traced, streamed engine configuration and
// returns the results plus the raw streamed event and series bytes.
func runTraced(t *testing.T, cfg EngineConfig) (Result, []byte, []byte) {
	t.Helper()
	rec := trace.NewRecorder(trace.Config{SampleEvery: 4})
	var events, series bytes.Buffer
	if err := rec.StreamTo(&events, &series); err != nil {
		t.Fatal(err)
	}
	cfg.Trace = rec
	r := run1(cfg)
	return r, events.Bytes(), series.Bytes()
}

// TestFastForwardByteIdentical is the dense-vs-fast-forward
// cross-check: the same configuration run with event-driven
// fast-forward (the default) and with DisableFastForward must produce
// byte-identical results, flight-recorder traces, and streamed
// output. Fast-forward only jumps the tick clock over spans every
// deadline source (policy periods, recovery boundaries, the trace
// sampler, audits) has proved are no-ops, so any observable
// divergence here is a bug in a deadline, not a tolerance question.
// Covers a promotion-heavy system, a scanner system, and a
// Gradual-style workload whose growth keeps batches short.
func TestFastForwardByteIdentical(t *testing.T) {
	cells := []struct {
		name string
		sys  System
		spec workload.Spec
		frag bool
	}{
		{"gemini-masstree", Gemini, workload.Masstree(), false},
		{"thp-xapian-gradual", THP, workload.Xapian(), true},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallCfg(c.sys, c.spec)
			cfg.Fragmented = c.frag
			cfg.Audit = true

			fast, fastEv, fastSer := runTraced(t, cfg)

			dense := cfg
			dense.DisableFastForward = true
			slow, slowEv, slowSer := runTraced(t, dense)

			// The config knob itself is the only permitted difference;
			// results carry no config echo, so full deep-equality holds.
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("results diverged\nfast-forward: %+v\ndense:        %+v", fast, slow)
			}
			if !bytes.Equal(fastEv, slowEv) {
				t.Errorf("streamed event bytes diverged (%d vs %d bytes)", len(fastEv), len(slowEv))
			}
			if !bytes.Equal(fastSer, slowSer) {
				t.Errorf("streamed series bytes diverged (%d vs %d bytes)", len(fastSer), len(slowSer))
			}
		})
	}
}

// TestResultsFiniteWithZeroMeasurement is the NaN regression test for
// the zero-division sweep: an engine that measures nothing (the
// results()-level Requests == 0 degenerate case that Validate rejects
// at the config boundary) must still report finite metrics — the
// safeDiv guards turn every 0/0 rate into 0 rather than NaN, so JSON
// encoding and downstream table formatting never see non-finite
// floats.
func TestResultsFiniteWithZeroMeasurement(t *testing.T) {
	e := NewEngine(EngineConfig{
		VMs: []VMConfig{{
			System:     HostBVMB,
			Workload:   workload.Micro(8),
			GuestMemMB: 256,
		}},
		HostMemMB: 640,
		Requests:  100,
		Seed:      3,
	})
	// Force the degenerate state directly: no measured requests, no
	// accesses. results() must not divide by these.
	for _, ev := range e.vms {
		ev.ops, ev.fg, ev.acc = 0, 0, 0
	}
	for _, r := range e.results() {
		for _, v := range []float64{
			r.Throughput, r.TLBMissesPerKAccess, r.WalkCyclesPerAccess,
			r.AlignedRate, r.GuestFMFI, r.HugeCoverage, r.MeanLatency, r.P99Latency,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite metric in %+v", r)
			}
		}
	}
	// And the config boundary rejects an explicit zero outright.
	bad := EngineConfig{VMs: []VMConfig{{Workload: workload.Micro(8)}}, Requests: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted Requests == 0")
	}
}
