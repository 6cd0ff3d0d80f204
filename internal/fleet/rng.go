package fleet

import "math"

// Per-UE randomness is a splitmix64 stream whose state is one uint64 of
// the session's state. The fleet determinism rule: every stream is derived
// from (campaignSeed, ueID) only — never from the shard index, the order
// in which a shard runs its sessions, or a process-global source — so a
// UE's entire evolution is a pure function of the campaign seed and its
// id, and repartitioning the population across any shard count cannot
// change a single draw. fgvet's seededrand check enforces the same rule on
// math/rand call sites; the fleet hot path avoids math/rand entirely (a
// *rand.Rand per session would add a 2.5 KiB state table to seed and
// advance for every UE).

// splitmix64 is the finalizer of Steele et al.'s SplitMix64: a bijective
// mix with full 64-bit avalanche, used both to advance streams and to
// derive independent stream states from (campaignSeed, ueID).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixSeed folds (campaignSeed, ueID, salt) into one well-mixed stream
// state. Each application of splitmix64 avalanches the previous fold, so
// adjacent UE ids (and adjacent campaign seeds) land in unrelated streams.
func mixSeed(campaignSeed int64, ue uint64, salt uint64) uint64 {
	h := splitmix64(uint64(campaignSeed))
	h = splitmix64(h ^ ue)
	return splitmix64(h ^ salt)
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
func rngNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	x := *s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

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
