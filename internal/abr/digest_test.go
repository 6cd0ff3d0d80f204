package abr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"fivegsim/internal/trace"
)

// playerDigest is the SHA-256 of every playback bit TestPlayerDigest
// collects. Any change to it is a change to the player model's output.
const playerDigest = "d2c0acea744836ccff5c72201a4b128ca7fd346389e4202fbf0be94821e6e664"

// TestPlayerDigest pins the exact output of the playback loop over a grid
// that reaches every branch of it: both §5.1 ladders (160 and 20 Mbps
// top), eight mmWave/4G trace pairs, six algorithms (fastMPC, robustMPC,
// oracle MPC, BBA, RB, FESTIVE), the default player, chunk abandonment and
// a 10 s buffer cap on each trace of a pair, and the three interface
// schemes at buffer thresholds of 4, 10 and 16 s. BOLA is left out: its
// utility calls math.Log, whose bits differ by host. Playback hashes every
// Result field; interface selection hashes the session metrics, the
// qualities, the 4G time and switches, and each second's usage and
// interface.
func TestPlayerDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putF := func(x float64) { put(math.Float64bits(x)) }
	putSession := func(r Result) {
		for _, x := range []float64{r.QoE, r.StallS, r.StallPct, r.StartupS,
			r.DurationS, r.AvgBitrateMbps, r.NormBitrate} {
			putF(x)
		}
		put(uint64(r.Switches))
		for _, q := range r.Qualities {
			put(uint64(q))
		}
	}
	algos := []Algorithm{&MPC{}, &MPC{Robust: true}, &MPC{Pred: &OraclePredictor{}},
		&BBA{}, &RB{}, &FESTIVE{}}
	for _, v := range []Video{video5G(t), video4G(t)} {
		for p := int64(0); p < 8; p++ {
			tr5 := trace.Gen5GmmWave(p*7919+1, 400)
			tr4 := trace.Gen4G(p*104729+1, 400)
			for _, algo := range algos {
				for _, tr := range [][]float64{tr5, tr4} {
					for _, opt := range []Options{{}, {Abandon: true}, {MaxBufferS: 10}} {
						r := Simulate(v, algo, tr, opt)
						putSession(r)
						put(uint64(r.Abandons))
						putF(r.WastedMb)
						for _, s := range [][]float64{r.DownloadS, r.BufferAtSelectS, r.UsageMbps} {
							for _, x := range s {
								putF(x)
							}
						}
					}
				}
				for _, scheme := range []Scheme{Always5G, FiveGAware, FiveGAwareNoOverhead} {
					for _, th := range []float64{4, 10, 16} {
						r := SimulateIface(v, algo, tr5, tr4, scheme, th)
						putSession(r.Result)
						putF(r.Time4GS)
						put(uint64(r.Switches4G))
						for s, mb := range r.UsageMbps {
							putF(mb)
							if r.On5G[s] {
								put(1)
							} else {
								put(0)
							}
						}
						if scheme == Always5G {
							always5GIsPlayback(t, v, algo, tr5, r)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != playerDigest {
		t.Fatalf("player digest = %s, want %s", got, playerDigest)
	}
}

// always5GIsPlayback checks that interface selection which never leaves
// 5G is plain playback over the 5G trace, field for field but the
// algorithm label, with every second on 5G.
func always5GIsPlayback(t *testing.T, v Video, algo Algorithm, tr5 []float64, r IfaceResult) {
	t.Helper()
	want := Simulate(v, algo, tr5, Options{})
	got := r.Result
	got.Algorithm = want.Algorithm
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: always-5G session differs from playback:\niface    %+v\nplayback %+v",
			algo.Name(), got, want)
	}
	for s, on5G := range r.On5G {
		if !on5G {
			t.Errorf("%s: always-5G session on 4G in second %d", algo.Name(), s)
			break
		}
	}
}
