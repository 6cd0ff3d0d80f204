package fleet

import (
	"math"

	"fivegsim/internal/stats"
)

// Per-UE randomness is a SplitMix64 stream whose state is one uint64 of
// the session's state. The fleet determinism rule: every stream is derived
// from (campaignSeed, ueID) only — never from the shard index, the order
// in which a shard runs its sessions, or a process-global source — so a
// UE's entire evolution is a pure function of the campaign seed and its
// id, and repartitioning the population across any shard count cannot
// change a single draw. fgvet's seededrand check enforces the same rule on
// math/rand call sites; the fleet hot path avoids math/rand entirely (a
// *rand.Rand per session would add a 2.5 KiB state table to seed and
// advance for every UE).

// mixSeed folds (campaignSeed, ueID, salt) into one well-mixed stream
// state. Each application of the SplitMix64 finalizer avalanches the
// previous fold, so adjacent UE ids (and adjacent campaign seeds) land in
// unrelated streams.
func mixSeed(campaignSeed int64, ue uint64, salt uint64) uint64 {
	h := uint64(campaignSeed)
	h = stats.SplitMix64(&h) ^ ue
	h = stats.SplitMix64(&h) ^ salt
	return stats.SplitMix64(&h)
}

// UESeed derives the session RNG state for one UE. This is the only
// sanctioned seed-derivation rule in the fleet layer (see DESIGN.md,
// "Fleet sharding: one session at a time per shard").
func UESeed(campaignSeed int64, ue uint64) uint64 {
	return mixSeed(campaignSeed, ue, 0)
}

// arrivalSeed derives the independent state used for the UE's arrival-time
// draw. It is a separate salt, not the first draw of the session stream, so
// the arrival draw never perturbs the session stream.
func arrivalSeed(campaignSeed int64, ue uint64) uint64 {
	return mixSeed(campaignSeed, ue, 1)
}

// rngNext advances a stream one step and returns 64 uniform bits.
func rngNext(s *uint64) uint64 { return stats.SplitMix64(s) }

// rngU01 draws a uniform float64 in [0, 1) with 53 random bits.
func rngU01(s *uint64) float64 {
	return float64(rngNext(s)>>11) / (1 << 53)
}

// rngNorm draws a standard normal via Box-Muller. The first uniform is
// offset into (0, 1] so the log never sees zero.
func rngNorm(s *uint64) float64 {
	u1 := (float64(rngNext(s)>>11) + 1) / (1 << 53)
	u2 := rngU01(s)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
