package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"fivegsim/internal/obs"
)

// kernelDigest is the SHA-256 of every Result bit TestKernelDigest
// collects. Any change to it is a change to the transport model's output.
const kernelDigest = "f199473964478bb75b7ff6ca3c3b6c2aa88eff775b9c0e12b3c8960ea1806a6c"

// TestKernelDigest pins the exact output of SimulateTCP and SimulateBBR
// over a grid that reaches every branch of both loops: one and many flows,
// both send buffers, RTTs of 1 ms, 28 ms and 1.5 s (one RTT then spans
// three one-second buckets), no random loss, the production 1e-6, and the
// 1e-2 and 0.3 rates at which the loss draw often needs its exact
// probability or leaves the bracketed range, with observability off and
// on. The hash covers the bits of MeanMbps, SteadyMbps, Bytes, every
// PerSecondMbps entry and LossEvents.
func TestKernelDigest(t *testing.T) {
	sims := []struct {
		name string
		run  func(PathParams, TCPOptions, *rand.Rand) Result
	}{{"cubic", SimulateTCP}, {"bbr", SimulateBBR}}
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	seed := int64(0)
	for _, sim := range sims {
		for _, flows := range []int{1, 8, 25} {
			for _, wmem := range []float64{DefaultWmemBytes, TunedWmemBytes} {
				for _, rtt := range []float64{0.001, 0.028, 1.5} {
					for _, loss := range []float64{0, 1e-6, 1e-2, 0.3} {
						for _, obsOn := range []bool{false, true} {
							seed++
							p := PathParams{CapacityMbps: 1800, RTTSeconds: rtt,
								LossRate: loss, LossEventRate: 0.3}
							o := TCPOptions{Flows: flows, WmemBytes: wmem, DurationS: 2.5}
							if obsOn {
								o.Obs = obs.New()
							}
							r := sim.run(p, o, rand.New(rand.NewSource(seed)))
							put(math.Float64bits(r.MeanMbps))
							put(math.Float64bits(r.SteadyMbps))
							put(math.Float64bits(r.Bytes))
							for _, v := range r.PerSecondMbps {
								put(math.Float64bits(v))
							}
							put(uint64(r.LossEvents))
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != kernelDigest {
		t.Fatalf("transport kernel digest = %s, want %s", got, kernelDigest)
	}
}
