package repro

import (
	"testing"

	"repro/internal/sysreg"
)

// The facade tests assert the headline shapes of the paper's
// evaluation at quick scale. Each experiment runs once and is then
// examined from several angles, like the paper's figures.

func TestWorkloadsAndSystems(t *testing.T) {
	if len(Workloads()) != 18 {
		t.Fatalf("Workloads() = %d", len(Workloads()))
	}
	if len(Systems()) != 10 {
		t.Fatalf("Systems() = %d", len(Systems()))
	}
	if _, err := WorkloadByName("specjbb"); err != nil {
		t.Fatal(err)
	}
	if _, err := SystemByName("GEMINI"); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2(Options{Quick: true})
	byKey := map[string]MicroResult{}
	for _, r := range rows {
		byKey[r.Label+string(rune(r.DatasetMB))] = r
	}
	// At the largest quick dataset, aligned >> base and misaligned is
	// within ~1.6x of base (walk savings only).
	const big = 128
	find := func(label string) MicroResult {
		for _, r := range rows {
			if r.Label == label && r.DatasetMB == big {
				return r
			}
		}
		t.Fatalf("missing %s@%d", label, big)
		return MicroResult{}
	}
	base := find("Host-B-VM-B")
	aligned := find("Host-H-VM-H")
	misaligned := find("Host-H-VM-B")
	if aligned.Throughput < 3*base.Throughput {
		t.Errorf("aligned %.1f vs base %.1f: expected large gap", aligned.Throughput, base.Throughput)
	}
	if misaligned.Throughput > 1.8*base.Throughput {
		t.Errorf("misaligned %.1f suspiciously better than base %.1f",
			misaligned.Throughput, base.Throughput)
	}
}

func TestMotivationShape(t *testing.T) {
	rows := Motivation(Options{Quick: true, Workloads: []string{"canneal", "specjbb"}})
	// A cross-layer coordinated system (GEMINI or FHPM) has the best
	// aligned rate on every motivation workload; uncoordinated systems
	// only align by coincidence.
	best := map[string]string{}
	rate := map[string]float64{}
	var gemRates, thpRates []float64
	for _, r := range rows {
		if r.AlignedRate > rate[r.Workload] {
			rate[r.Workload] = r.AlignedRate
			best[r.Workload] = r.System
		}
		switch r.System {
		case "GEMINI":
			gemRates = append(gemRates, r.AlignedRate)
		case "THP":
			thpRates = append(thpRates, r.AlignedRate)
		}
	}
	for wl, sysName := range best {
		sys, err := SystemByName(sysName)
		if err != nil {
			t.Fatalf("%s: best system %q unknown: %v", wl, sysName, err)
		}
		if !sysreg.Def(sys).Coordinated {
			t.Errorf("%s: best aligned rate belongs to uncoordinated %s", wl, sysName)
		}
	}
	for i := range gemRates {
		if gemRates[i] <= thpRates[i] {
			t.Errorf("Gemini rate %.2f <= THP %.2f", gemRates[i], thpRates[i])
		}
	}
}

func TestNormalizeThroughput(t *testing.T) {
	rows := []Result{
		{System: "Host-B-VM-B", Workload: "w", Throughput: 10},
		{System: "GEMINI", Workload: "w", Throughput: 17},
	}
	n, err := NormalizeThroughput(rows, "Host-B-VM-B")
	if err != nil {
		t.Fatalf("NormalizeThroughput: %v", err)
	}
	if n["w"]["GEMINI"] != 1.7 {
		t.Fatalf("normalized = %v", n)
	}
	if n["w"]["Host-B-VM-B"] != 1.0 {
		t.Fatalf("baseline normalized = %v", n)
	}
}

func TestNormalizeThroughputMissingBaseline(t *testing.T) {
	rows := []Result{
		{System: "GEMINI", Workload: "w", Throughput: 17},
		{System: "THP", Workload: "w", Throughput: 12},
	}
	if _, err := NormalizeThroughput(rows, "Host-B-VM-B"); err == nil {
		t.Fatal("want error when the baseline system is absent, got nil")
	}
}

func TestNormalizeThroughputZeroBaseline(t *testing.T) {
	rows := []Result{
		{System: "Host-B-VM-B", Workload: "w", Throughput: 10},
		{System: "Host-B-VM-B", Workload: "x", Throughput: 0},
		{System: "GEMINI", Workload: "w", Throughput: 17},
		{System: "GEMINI", Workload: "x", Throughput: 9},
	}
	_, err := NormalizeThroughput(rows, "Host-B-VM-B")
	if err == nil {
		t.Fatal("want error when a baseline throughput is zero, got nil")
	}
	if !containsStr(err.Error(), "x") {
		t.Errorf("error should name the workload missing a baseline: %v", err)
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Result{
		{System: "A", Workload: "w1", Throughput: 1},
		{System: "B", Workload: "w1", Throughput: 2},
		{System: "A", Workload: "w2", Throughput: 3},
		{System: "B", Workload: "w2", Throughput: 4},
	}
	s := FormatTable("t", rows, func(r Result) float64 { return r.Throughput }, "%.0f")
	if s == "" {
		t.Fatal("empty table")
	}
	for _, want := range []string{"w1", "w2", "A", "B"} {
		if !containsStr(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestGeometricMean(t *testing.T) {
	if g := GeometricMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("GeometricMean(2,8) = %v", g)
	}
	if GeometricMean(nil) != 0 {
		t.Fatal("empty geomean != 0")
	}
	if GeometricMean([]float64{1, -1}) != 0 {
		t.Fatal("negative geomean != 0")
	}
}

func TestBreakdownHasAllVariants(t *testing.T) {
	rows := Breakdown(Options{Quick: true, Workloads: []string{"memcached"}})
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.System] = true
	}
	for _, want := range []string{"GEMINI", "GEMINI-EMA/HB", "GEMINI-bucket"} {
		if !seen[want] {
			t.Errorf("missing variant %s (have %v)", want, seen)
		}
	}
}

func TestColocatedOverheadBound(t *testing.T) {
	// §6.5: on the non-TLB-sensitive tenant Gemini costs at most a few
	// percent.
	pairs := Colocated(Options{Quick: true})
	rows, ok := pairs["masstree+sp.d"]
	if !ok {
		t.Fatalf("missing pair: %v", func() []string {
			var ks []string
			for k := range pairs {
				ks = append(ks, k)
			}
			return ks
		}())
	}
	var base, gem float64
	for _, cr := range rows {
		switch cr.B.System {
		case "Host-B-VM-B":
			base = cr.B.Throughput
		case "GEMINI":
			gem = cr.B.Throughput
		}
	}
	if base == 0 || gem == 0 {
		t.Fatal("missing systems in pair results")
	}
	ratio := gem / base
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("sp.d under Gemini vs base = %.3f, want ~1", ratio)
	}
}
