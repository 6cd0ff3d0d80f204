package fleet

import (
	"math"
	"strings"
	"testing"
)

// TestConfigValidate pins the fail-fast contract: bad configs are rejected
// with a clear error naming the offending field, and the zero-means-default
// knobs are accepted.
func TestConfigValidate(t *testing.T) {
	valid := Config{Seed: 1, UEs: 10, Mix: MixMixed}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" means valid
	}{
		{"valid minimal", func(c *Config) {}, ""},
		{"zero knobs mean defaults", func(c *Config) {
			c.WindowS, c.SessionS, c.Shards, c.TraceEvery = 0, 0, 0, 0
		}, ""},
		{"zero ues", func(c *Config) { c.UEs = 0 }, "UEs must be >= 1"},
		{"negative ues", func(c *Config) { c.UEs = -5 }, "UEs must be >= 1"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards must be >= 0"},
		{"negative window", func(c *Config) { c.WindowS = -60 }, "WindowS must be >= 0"},
		{"NaN window", func(c *Config) { c.WindowS = math.NaN() }, "WindowS must be finite"},
		{"Inf session", func(c *Config) { c.SessionS = math.Inf(1) }, "SessionS must be finite"},
		{"negative session", func(c *Config) { c.SessionS = -1 }, "SessionS must be >= 0"},
		{"session chunks overflow int32", func(c *Config) { c.SessionS = 1e10 }, "SessionS must be <="},
		{"negative trace stride", func(c *Config) { c.TraceEvery = -2 }, "TraceEvery must be >= 0"},
		{"unknown mix", func(c *Config) { c.Mix = Mix(99) }, "unknown mix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidConfig asserts Run fails before any shard starts
// instead of producing a silent empty campaign.
func TestRunRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, UEs: 0, Mix: MixMixed},
		{Seed: 1, UEs: 10, Mix: MixMixed, WindowS: -1},
		{Seed: 1, UEs: 10, Mix: MixMixed, SessionS: 1e10},
		{Seed: 1, UEs: 10, Mix: Mix(42)},
	} {
		if res, err := Run(cfg); err == nil {
			t.Fatalf("Run(%+v) succeeded (%d UE results), want validation error", cfg, len(res.UEs))
		}
	}
}
