package abr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// expProbe is an input on which the three math.Exp paths this repository
// runs on return three different results: amd64's assembly with FMA, the
// same assembly without it (GODEBUG=cpu.fma=off), and the pure-Go exp
// (GOARCH=386 and every other port without Exp assembly).
const expProbe = 14.25

// pensieveWeightDigests holds, per math path (keyed by the bits of
// math.Exp(expProbe)), the SHA-256 of fmt %v over the weights of fig17's
// two trained Pensieve policies, 5G then 4G. Training calls math.Exp (the
// softmax), math.Tanh and math.Log, so the weights differ by path.
var pensieveWeightDigests = map[uint64][2]string{
	0x41378fee7792e44b: { // amd64, FMA
		"0cf18889ac973439b7a40233311efbffa8fea344579efbdb762bea8afc714a25",
		"fad5cee3045e3710a12ae35b046faf8ae779f7fb5d1a20c608a1f1fd00df6a79",
	},
	0x41378fee7792e44a: { // amd64, GODEBUG=cpu.fma=off
		"8b07df62090aef27b30f96c0842be0eee8c42f5ee9b8f7615e2390ddcbc814bf",
		"35504a892975e49865fb10cc7354c7a1aa994995b25465b1c2810bb7878fff03",
	},
	0x41378fee7792e44c: { // pure-Go exp (386)
		"9c4a87b95cc61a499728463d4b0595ba50b7e4f7ae043f185f74e5eb6162c01b",
		"e2815fc1c1798c4dc02ff5c2f20e6331b11ed3b50d57e8d8079722fb5b28bbf6",
	},
}

// TestPensieveWeightsDigest pins the weights of both fig17 policies at
// seed 1: TrainPensieve with seed 8 on GenSet5G/GenSet4G(30, 400, 99) for
// the §5.1 ladders. Any change to the network's arithmetic order, to the
// gradient step or to the teacher shows here.
func TestPensieveWeightsDigest(t *testing.T) {
	probe := math.Float64bits(math.Exp(expProbe))
	want, ok := pensieveWeightDigests[probe]
	if !ok {
		t.Fatalf("unknown math.Exp path: Exp(%v) has bits %#x; add its digests", expProbe, probe)
	}
	for i, c := range []struct {
		v      Video
		traces [][]float64
	}{
		{video5G(t), trace.GenSet5G(30, 400, 99)},
		{video4G(t), trace.GenSet4G(30, 400, 99)},
	} {
		p, err := TrainPensieve(c.v, c.traces, 8)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%v", p.policy.Net)))
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("policy %d (%s ladder) weights digest = %s, want %s",
				i, []string{"5G", "4G"}[i], got, want[i])
		}
	}
}
