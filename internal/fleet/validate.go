package fleet

import (
	"fmt"
	"math"
)

// Validate reports why the config cannot run a campaign: a non-positive
// population, a negative or non-finite knob, a session whose chunk count
// overflows int32, or an unknown mix. Zero values for
// WindowS/SessionS/Shards/SketchK mean "use the default" and are accepted;
// anything negative is an error, never a silent empty campaign.
//
// Run calls Validate itself, so library callers (the battery's fleet
// experiment, fgservd scenario requests) get the same fail-fast errors the
// fgfleet CLI prints — a malformed config can no longer produce an empty
// table or panic mid-campaign.
func (c Config) Validate() error {
	if c.UEs <= 0 {
		return fmt.Errorf("fleet: UEs must be >= 1 (got %d)", c.UEs)
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: Shards must be >= 0 (0 = GOMAXPROCS; got %d)", c.Shards)
	}
	if err := validKnob("WindowS", c.WindowS); err != nil {
		return err
	}
	if err := validKnob("SessionS", c.SessionS); err != nil {
		return err
	}
	if c.SessionS > chunkS*math.MaxInt32 {
		return fmt.Errorf("fleet: SessionS must be <= %v (%d chunks of %v s; got %v)",
			chunkS*math.MaxInt32, math.MaxInt32, chunkS, c.SessionS)
	}
	if c.SketchK < 0 {
		return fmt.Errorf("fleet: SketchK must be >= 0 (0 = default %d; got %d)", DefaultSketchK, c.SketchK)
	}
	if c.TraceEvery < 0 {
		return fmt.Errorf("fleet: TraceEvery must be >= 0 (0 = derived stride; got %d)", c.TraceEvery)
	}
	if _, err := MixByName(c.Mix.String()); err != nil {
		return err
	}
	return nil
}

// validKnob accepts zero (meaning "default") and any positive finite value.
func validKnob(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("fleet: %s must be finite (got %v)", name, v)
	}
	if v < 0 {
		return fmt.Errorf("fleet: %s must be >= 0 (0 = default; got %v)", name, v)
	}
	return nil
}
