package fleet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fivegsim/internal/fleet"
)

// fleetKernelDigest is the SHA-256 of every UEResult bit TestFleetKernelDigest
// collects. Any change to it is a change to the fleet model's output.
const fleetKernelDigest = "edb665fe85e750606d3f878face333b32ccdb0b67bc4a0ea1ea3c6c0286a0c97"

// TestFleetKernelDigest pins the exact per-UE output of the fleet chunk
// kernel: every field of every UEResult, for each mix, seeds 1-3 and
// sessions of 32 s (8 chunks) and 120 s (30 chunks), 3000 UEs each over
// the default 600 s window. The digest must be the same at 1 and 3 shards.
// Unlike the goldens, which see only the rendered percentiles, the hash
// covers each UE's ladder and loss-draw outcome, so scripts/ci.sh also
// runs it with amd64's other Exp path (GODEBUG=cpu.fma=off) and under
// GOARCH=386's pure-Go math.
func TestFleetKernelDigest(t *testing.T) {
	for _, shards := range []int{1, 3} {
		h := sha256.New()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for _, mix := range fleet.AllMixes {
			for seed := int64(1); seed <= 3; seed++ {
				for _, sessionS := range []float64{32, 120} {
					r := mustRun(t, fleet.Config{Seed: seed, UEs: 3000, Shards: shards,
						Mix: mix, SessionS: sessionS})
					for _, u := range r.UEs {
						for _, v := range []float64{u.ArrivalS, u.DurationS, u.MeanMbps,
							u.QoE, u.StallS, u.StartupS, u.EnergyJ} {
							put(math.Float64bits(v))
						}
						put(uint64(u.Chunks))
						put(uint64(u.NRChunks))
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fleetKernelDigest {
			t.Errorf("shards=%d: fleet kernel digest = %s, want %s", shards, got, fleetKernelDigest)
		}
	}
}
