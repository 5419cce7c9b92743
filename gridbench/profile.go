package main

// CPU-profile fold for the traced pass. Spans from the benchmark's own
// code stop at machine.Machine.Tick; the daemon work inside it, and
// the self time of each module, come from a runtime/pprof CPU profile
// decoded with the toolchain's own `go tool pprof -traces`.

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// inclusiveFuncs are the named daemon hot spots: a sample counts
// toward a metric when the function is anywhere on its stack.
var inclusiveFuncs = []struct{ metric, fn string }{
	{"prof.gemini_scan_ms", "repro/internal/core.(*Gemini).Scan"},
	{"prof.compaction_ms", "repro/internal/machine.(*Layer).RunCompaction"},
	{"prof.free_regions_ms", "repro/internal/buddy.(*Allocator).FreeRegions"},
	{"prof.flush_huge_ms", "repro/internal/tlb.(*TLB).FlushHugeRegion"},
	{"prof.swap_tick_ms", "repro/internal/machine.(*Machine).swapTick"},
}

// selfModules are the program packages whose self time is reported.
var selfModules = []string{
	"buddy", "contig", "pagetable", "tlb", "machine", "core", "policy", "workload", "frag",
}

// gcFuncs mark a sample as garbage-collector work wherever it lands.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

// profSample is one stack from `pprof -traces`: its value and its
// frames, leaf first.
type profSample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads `go tool pprof -traces` output: blocks separated
// by dashed lines, the first line of each holding the sample value and
// the leaf frame, following lines one caller frame each.
func parseTraces(out []byte) ([]profSample, error) {
	var samples []profSample
	var cur *profSample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		if cur == nil {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue // header lines before the first block
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			samples = append(samples, profSample{value: d, frames: []string{fields[1]}})
			cur = &samples[len(samples)-1]
			continue
		}
		if f := strings.TrimSuffix(strings.TrimSpace(line), " (inline)"); f != "" {
			cur.frames = append(cur.frames, f)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// classify names the self-time bucket of one sample ("" when it falls
// in none of the reported buckets).
func classify(s profSample) string {
	hasMalloc := false
	for _, f := range s.frames {
		if gcFuncs[f] {
			return "runtime.gc"
		}
		if f == "runtime.mallocgc" {
			hasMalloc = true
		}
	}
	leaf := s.frames[0]
	switch {
	case strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "internal/runtime/maps."):
		return "runtime.map"
	case hasMalloc && strings.HasPrefix(leaf, "runtime."):
		return "runtime.malloc"
	case strings.HasPrefix(leaf, "repro/internal/"):
		mod := strings.TrimPrefix(leaf, "repro/internal/")
		if i := strings.IndexByte(mod, '.'); i >= 0 {
			mod = mod[:i]
		}
		return mod
	}
	return ""
}

// foldProfile decodes the CPU profile at path and returns the prof.*
// and self_ms.* metrics in milliseconds.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	samples, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("go tool pprof -traces %s: no samples", path)
	}
	m := map[string]float64{}
	for _, f := range inclusiveFuncs {
		m[f.metric] = 0
	}
	for _, mod := range selfModules {
		m["self_ms."+mod] = 0
	}
	for _, mod := range []string{"runtime.map", "runtime.gc", "runtime.malloc"} {
		m["self_ms."+mod] = 0
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, s := range samples {
		for _, f := range inclusiveFuncs {
			for _, fr := range s.frames {
				if fr == f.fn {
					m[f.metric] += ms(s.value)
					break
				}
			}
		}
		if b := classify(s); b != "" {
			if _, ok := m["self_ms."+b]; ok {
				m["self_ms."+b] += ms(s.value)
			}
		}
	}
	return m, nil
}
