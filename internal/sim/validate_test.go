package sim

import (
	"strings"
	"testing"

	"repro/internal/sysreg"
	"repro/internal/workload"
)

func validConfig() EngineConfig { return SingleVM(Gemini, workload.Redis()) }

func validPair() EngineConfig {
	return ColocatedPair(Gemini, workload.Redis(), workload.Shore(), 0)
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid single-VM config rejected: %v", err)
	}
	if err := validPair().Validate(); err != nil {
		t.Fatalf("valid colocated config rejected: %v", err)
	}
}

// TestConfigValidateRejections is the EngineConfig validation table.
// Each case mutates one preset, single-VM or colocated, into a
// configuration Validate must reject with an error naming the problem.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		preset  func() EngineConfig
		mutate  func(*EngineConfig)
		wantSub string
	}{
		{"system-negative", validConfig, func(c *EngineConfig) { c.VMs[0].System = -1 }, "out of range"},
		{"system-past-end", validConfig, func(c *EngineConfig) { c.VMs[0].System = System(sysreg.Count()) },
			"out of range"},
		{"negative-requests", validConfig, func(c *EngineConfig) { c.Requests = -1 }, "negative pacing"},
		{"negative-warmup", validConfig, func(c *EngineConfig) { c.WarmupRequests = -5 }, "negative pacing"},
		{"negative-requests-per-tick", validConfig, func(c *EngineConfig) { c.RequestsPerTick = -2 },
			"negative pacing"},
		{"negative-recover-ticks", validConfig, func(c *EngineConfig) { c.RecoverEveryTicks = -1 },
			"negative pacing"},
		{"negative-audit-every", validConfig, func(c *EngineConfig) { c.AuditEvery = -8 }, "negative pacing"},
		{"negative-guest-mem", validConfig, func(c *EngineConfig) { c.VMs[0].GuestMemMB = -1 }, "negative memory"},
		{"negative-host-mem", validConfig, func(c *EngineConfig) { c.HostMemMB = -1 }, "negative memory"},
		{"frag-target-negative", validConfig, func(c *EngineConfig) { c.FragTarget = -0.1 }, "FragTarget"},
		{"frag-target-one", validConfig, func(c *EngineConfig) { c.FragTarget = 1.0 }, "FragTarget"},
		{"guest-exceeds-host", validConfig,
			func(c *EngineConfig) { c.VMs[0].GuestMemMB = 4096; c.HostMemMB = 1024 }, "exceeds host"},
		{"unnamed-workload", validConfig, func(c *EngineConfig) { c.VMs[0].Workload = workload.Spec{} }, "no name"},
		{"zero-footprint", validConfig, func(c *EngineConfig) { c.VMs[0].Workload.FootprintMB = 0 },
			"positive footprint"},
		{"zero-request-pages", validConfig, func(c *EngineConfig) { c.VMs[0].Workload.RequestPages = 0 },
			"positive footprint"},
		{"colocated-unnamed-workload-b", validPair, func(c *EngineConfig) { c.VMs[1].Workload = workload.Spec{} },
			"no name"},
		{"colocated-system-past-end", validPair, func(c *EngineConfig) {
			c.VMs[0].System = System(sysreg.Count())
			c.VMs[1].System = System(sysreg.Count())
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.preset()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestNewEnginePanicsOnInvalidConfig locks the engine entry point's
// contract: invalid configurations fail loudly instead of running with
// garbage.
func TestNewEnginePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine did not panic on an invalid config")
		}
	}()
	cfg := validConfig()
	cfg.VMs[0].System = -3
	NewEngine(cfg)
}
