package sim

// Locks the full production registry: the exact rank order (System
// values are indices into it, so reordering silently re-labels every
// numeric config and golden), the SystemByName/String round trip over
// every registered system including the ablations, and the
// did-you-mean content of the unknown-name error.

import (
	"strings"
	"testing"

	"repro/internal/sysreg"
)

// registryOrder is the frozen rank order. Appending a new system is
// expected to extend this list; any other change means existing System
// values (and every golden keyed by them) shifted meaning.
var registryOrder = []string{
	"Host-B-VM-B",
	"Misalignment",
	"THP",
	"CA-paging",
	"Trans-ranger",
	"HawkEye",
	"Ingens",
	"GEMINI",
	"GEMINI-EMA/HB",
	"GEMINI-bucket",
	"GEMINI-static-timeout",
	"GEMINI-no-prealloc",
	"FHPM",
	"Segmentation",
}

func TestRegistryOrderLocked(t *testing.T) {
	all := AllSystems()
	if len(all) != len(registryOrder) {
		t.Fatalf("registry has %d systems, want %d: %v",
			len(all), len(registryOrder), all)
	}
	for i, want := range registryOrder {
		if got := all[i].String(); got != want {
			t.Errorf("System(%d) = %q, want %q", i, got, want)
		}
	}
	// The package-level handles must agree with the positional order.
	handles := []System{HostBVMB, Misalignment, THP, CAPaging, Ranger,
		HawkEye, Ingens, Gemini, GeminiNoBucket, GeminiBucketOnly,
		GeminiStaticTimeout, GeminiNoPrealloc, FHPM, Segmentation}
	for i, h := range handles {
		if int(h) != i {
			t.Errorf("handle %s = %d, want %d", h, int(h), i)
		}
	}
}

func TestRegistryRoundTripAll(t *testing.T) {
	for _, s := range AllSystems() {
		got, err := SystemByName(s.String())
		if err != nil {
			t.Errorf("SystemByName(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q: got %d, want %d", s.String(), int(got), int(s))
		}
	}
}

func TestRegistryFigureSubset(t *testing.T) {
	fig := Systems()
	if len(fig) != 10 {
		t.Fatalf("figure systems = %d, want 10: %v", len(fig), fig)
	}
	// Ablations stay out of the figure sweeps.
	for _, s := range fig {
		if strings.HasPrefix(s.String(), "GEMINI-") {
			t.Errorf("ablation %s in figure list", s)
		}
		if !sysreg.Def(s).Figure {
			t.Errorf("%s in Systems() but not marked Figure", s)
		}
	}
	// Coordinated/translation flags land where expected.
	if !sysreg.Def(Gemini).Coordinated || !sysreg.Def(FHPM).Coordinated {
		t.Error("GEMINI and FHPM must be Coordinated")
	}
	if sysreg.Def(THP).Coordinated {
		t.Error("THP must not be Coordinated")
	}
	if sysreg.Def(Segmentation).NewTranslation == nil {
		t.Error("Segmentation must replace the translation mode")
	}
	if sysreg.Def(Gemini).NewTranslation != nil || sysreg.Def(THP).NewTranslation != nil {
		t.Error("radix systems must leave NewTranslation nil")
	}
}

func TestSystemByNameDidYouMean(t *testing.T) {
	_, err := SystemByName("GEMNI")
	if err == nil {
		t.Fatal("unknown name resolved")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"GEMNI"`) {
		t.Errorf("error %q does not quote the bad name", msg)
	}
	for _, name := range registryOrder {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid name %q:\n%s", name, msg)
		}
	}
}

func TestBuildPoliciesFreshPerCall(t *testing.T) {
	// Each Build must return a fresh stack: shared mutable policy state
	// across VMs would couple runs that happen to share a System value.
	g1, h1, c1 := sysreg.Build(Gemini)
	g2, h2, c2 := sysreg.Build(Gemini)
	if g1 == g2 || h1 == h2 || c1 == c2 {
		t.Error("sysreg.Build(Gemini) returned shared instances")
	}
	if c1 == nil {
		t.Error("Gemini build has no coordinator")
	}
	if _, _, c := sysreg.Build(THP); c != nil {
		t.Error("THP build has a coordinator")
	}
	if _, _, c := sysreg.Build(FHPM); c == nil {
		t.Error("FHPM build has no coordinator")
	}
	if sysreg.NewTranslation(Segmentation) == nil {
		t.Error("Segmentation translation mode nil")
	}
}
