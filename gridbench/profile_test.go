package main

import (
	"testing"
	"time"
)

// tracesOutput is the shape `go tool pprof -traces` prints: a header,
// then one block per stack, leaf first, inlined frames marked.
const tracesOutput = `File: gridbench
Type: cpu
Duration: 3.23s, Total samples = 3.04s (94.07%)
-----------+-------------------------------------------------------
      10ms   repro/internal/pagetable.(*Table).Lookup
             repro/internal/machine.(*Layer).EnsureMapped
             repro/internal/workload.(*Workload).populate (inline)
             main.main
-----------+-------------------------------------------------------
      20ms   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess1_fast64
             repro/internal/core.(*Gemini).Scan
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             repro/internal/machine.(*Machine).swapTick
-----------+-------------------------------------------------------
`

func TestParseTracesAndClassify(t *testing.T) {
	samples, err := parseTraces([]byte(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	if got := samples[0].frames[2]; got != "repro/internal/workload.(*Workload).populate" {
		t.Errorf("inline marker not stripped: %q", got)
	}
	want := []struct {
		value  time.Duration
		bucket string
	}{
		{10 * time.Millisecond, "pagetable"},
		{20 * time.Millisecond, "runtime.map"},
		{30 * time.Millisecond, "runtime.gc"},
		{40 * time.Millisecond, "runtime.malloc"},
	}
	for i, w := range want {
		if samples[i].value != w.value {
			t.Errorf("sample %d value %v, want %v", i, samples[i].value, w.value)
		}
		if got := classify(samples[i]); got != w.bucket {
			t.Errorf("sample %d bucket %q, want %q", i, got, w.bucket)
		}
	}
}
