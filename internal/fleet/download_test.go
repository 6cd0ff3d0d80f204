package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// ladderEdges counts how often TestDownloadMatchesLadderOracle reached each
// edge the drain argument relies on: in RTTs for the three slow-start
// edges, in cases for the rest.
type ladderEdges struct {
	slowAtCapInf   int // an RTT began in slow start at cwnd == bdpCap, ssth +Inf
	slowAtCapAbove int // ... with a finite ssth above bdpCap
	slowAtCapBelow int // ... with ssth at or below bdpCap (leaves slow start)
	smallCap       int // bdpCap < 2
	wndLimited     int // bdpCap > wndCapPkts
	maxIters       int // maxRTTIters RTTs walked, the rest drained at the steady rate
	outageFloor    int // ... at the outage floor rate
}

// downloadOracle is the reference ladder: shard.download as it stood
// while the drain shortcut required !slow, so every slow-start RTT at the
// BDP cap walked the full update, and every loss draw compared with
// 1-math.Exp directly. The only additions are the edge counters.
func downloadOracle(s *session, la *layer, capMbps, sizeMb, start float64, e *ladderEdges) float64 {
	rtt := la.rttS
	cwnd := s.cwnd
	slow := s.slow
	ssth := s.ssth
	wmax := s.wmax
	kk := s.k
	epoch := s.epoch
	capPerRTT := capMbps * rtt
	bdpPkts := capPerRTT / mssMb
	bdpCap := bdpPkts * bdpHeadroom
	if bdpCap < 2 {
		e.smallCap++
	}
	if bdpCap > wndCapPkts {
		e.wndLimited++
	}
	remaining := sizeMb
	t := 0.0
	iter := 0
	for ; iter < maxRTTIters && remaining > 0; iter++ {
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		perRTT := w * mssMb
		rate := perRTT / rtt
		if rate > capMbps {
			rate = capMbps
			perRTT = capPerRTT
		}
		if slow && cwnd == bdpCap {
			switch {
			case math.IsInf(ssth, 1):
				e.slowAtCapInf++
			case ssth > bdpCap:
				e.slowAtCapAbove++
			default:
				e.slowAtCapBelow++
			}
		}
		if !slow && cwnd == bdpCap {
			for ; iter < maxRTTIters && remaining > perRTT; iter++ {
				remaining -= perRTT
				t += rtt
			}
			if iter < maxRTTIters {
				t += remaining / rate
				remaining = 0
			}
			break
		}
		if remaining <= perRTT {
			t += remaining / rate
			remaining = 0
			break
		}
		remaining -= perRTT
		t += rtt
		if slow && cwnd < ssth {
			cwnd *= 2
		} else {
			slow = false
			et := start + t - epoch
			dd := et - kk
			target := cubicC*dd*dd*dd + wmax
			if target > cwnd {
				if g := cwnd * 1.5; target > g {
					target = g
				}
				cwnd = target
			}
		}
		if cwnd > bdpCap {
			cwnd = bdpCap
		}
		if cwnd < 2 {
			cwnd = 2
		}
	}
	if remaining > 0 {
		e.maxIters++
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		rate := w * mssMb / rtt
		if rate > capMbps {
			rate = capMbps
		}
		if rate < outageFloorMbps {
			rate = outageFloorMbps
			e.outageFloor++
		}
		t += remaining / rate
	}
	util := (sizeMb / t) / capMbps
	if util > 1 {
		util = 1
	}
	if rngU01(&s.rng) < 1-math.Exp(-la.lossEv*util*t) {
		s.wmax = cwnd
		s.k = math.Cbrt(s.wmax * (1 - cubicBeta) / cubicC)
		cwnd = math.Max(2, cwnd*cubicBeta)
		s.ssth = cwnd
		s.epoch = start + t
		slow = false
	}
	s.slow = slow
	s.cwnd = cwnd
	return t
}

// logUniform draws from [lo, hi) evenly in log scale.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// ladderCase draws one download: the layer, link and chunk, and the
// session's CUBIC state on entry. cwnd is at least 2, as on every entry in
// a campaign (it starts at initCwndPkts, and every update and loss floors
// it at 2). The draw mixes campaign-like values with the edges: cwnd at
// bdpCap exactly or a power of two below it, ssth +Inf or finite on
// either side of bdpCap in slow start, links too slow for two packets per
// RTT or for the chunk within maxRTTIters, and BDPs past the send-buffer
// window.
func ladderCase(rng *rand.Rand) (s session, la layer, capMbps, sizeMb, start float64) {
	la.rttS = logUniform(rng, 0.005, 0.2)
	if rng.Intn(20) == 0 {
		la.rttS = logUniform(rng, 0.001, 1.5)
	}
	la.lossEv = []float64{lossEvMmWave, lossEvLowBand, lossEvLTE, 0, 2}[rng.Intn(5)]
	switch rng.Intn(8) {
	case 0:
		capMbps = outageFloorMbps
	case 1:
		capMbps = logUniform(rng, 0.001, 1)
	case 2:
		capMbps = logUniform(rng, 500, 8000)
	default:
		capMbps = logUniform(rng, 1, 4000)
	}
	if rng.Intn(2) == 0 {
		sizeMb = 160 * chunkS / math.Pow(ladderStep, float64(rng.Intn(ladderTracks)))
	} else {
		sizeMb = logUniform(rng, 0.01, 4000)
	}
	start = rng.Float64() * 700
	bdpCap := capMbps * la.rttS / mssMb * bdpHeadroom
	s.rng = rng.Uint64()
	s.slow = rng.Intn(2) == 0
	s.ssth = math.Inf(1)
	switch rng.Intn(6) {
	case 0:
		s.cwnd = initCwndPkts
	case 1:
		s.cwnd = 2
	case 2:
		s.cwnd = bdpCap
	case 3:
		s.cwnd = math.Ldexp(bdpCap, -rng.Intn(12))
	default:
		s.cwnd = logUniform(rng, 2, 1e5)
	}
	s.cwnd = math.Max(2, s.cwnd)
	if !s.slow || rng.Intn(2) == 0 {
		switch rng.Intn(4) {
		case 0:
			s.ssth = bdpCap
		case 1:
			s.ssth = math.Nextafter(bdpCap, math.Inf(1))
		case 2:
			s.ssth = bdpCap * (0.1 + 2*rng.Float64())
		default:
			s.ssth = logUniform(rng, 2, 1e5)
		}
	}
	s.wmax = logUniform(rng, 2, 1e5)
	s.k = math.Cbrt(s.wmax * (1 - cubicBeta) / cubicC)
	s.epoch = start - rng.Float64()*60
	return s, la, capMbps, sizeMb, start
}

// TestDownloadMatchesLadderOracle holds shard.download to the reference
// ladder bit for bit over 1M random downloads: the transfer time and
// every piece of session state a download reads or writes (cwnd, slow,
// ssth, wmax, k, epoch and the RNG stream). The drain of slow start at the
// BDP cap and the bracketed loss draw must change none of them. Each edge
// of ladderEdges must be reached at least 1000 times.
func TestDownloadMatchesLadderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sh := new(shard)
	var e ladderEdges
	const cases = 1_000_000
	for i := 0; i < cases; i++ {
		s, la, capMbps, sizeMb, start := ladderCase(rng)
		want := s
		wantT := downloadOracle(&want, &la, capMbps, sizeMb, start, &e)
		got := s
		gotT := sh.download(&got, &la, capMbps, sizeMb, start)
		bits := math.Float64bits
		if bits(gotT) != bits(wantT) || bits(got.cwnd) != bits(want.cwnd) ||
			got.slow != want.slow || bits(got.ssth) != bits(want.ssth) ||
			bits(got.wmax) != bits(want.wmax) || bits(got.k) != bits(want.k) ||
			bits(got.epoch) != bits(want.epoch) || got.rng != want.rng {
			t.Fatalf("case %d (rtt %v, lossEv %v, cap %v Mbps, size %v Mb, start %v, entry %+v):\n"+
				"download t=%v state %+v\noracle   t=%v state %+v",
				i, la.rttS, la.lossEv, capMbps, sizeMb, start, s, gotT, got, wantT, want)
		}
	}
	t.Logf("%d cases: %+v", cases, e)
	for name, n := range map[string]int{
		"slow start at bdpCap, ssth +Inf":         e.slowAtCapInf,
		"slow start at bdpCap, ssth above it":     e.slowAtCapAbove,
		"slow start at bdpCap, ssth at or below":  e.slowAtCapBelow,
		"bdpCap < 2":                              e.smallCap,
		"window-limited (bdpCap > wndCapPkts)":    e.wndLimited,
		"maxRTTIters reached":                     e.maxIters,
		"maxRTTIters reached at the outage floor": e.outageFloor,
	} {
		if n < 1000 {
			t.Errorf("edge %q reached in %d cases, want at least 1000", name, n)
		}
	}
}

// TestLossDrawnMatchesExp holds the chunk's bracketed loss draw to the
// comparison it decides, u < 1-math.Exp(x) with x = -y, over seeded y: 0
// and 1 (the bracket's ends), campaign-scale y (an episode rate times a
// transfer time), all of [0, 1], tiny y, y above 1 and NaN (both always
// exact). For each, u is the probability itself, its float64 neighbours
// on both sides, and uniform draws.
func TestLossDrawnMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300000; trial++ {
		var y float64
		switch trial % 7 {
		case 0:
			y = 0
		case 1:
			y = 1
		case 2:
			y = rng.Float64() * 0.5
		case 3:
			y = rng.Float64()
		case 4:
			y = math.Ldexp(rng.Float64(), -rng.Intn(80))
		case 5:
			y = 1 + rng.Float64()*8
		case 6:
			y = math.NaN()
		}
		x := -y
		p := 1 - math.Exp(x)
		u0 := rng.Uint64()
		for _, u := range []float64{p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)),
			rng.Float64(), rngU01(&u0)} {
			if got, want := lossDrawn(u, x), u < p; got != want {
				t.Fatalf("y=%v u=%v: bracketed draw says lost=%v, u < 1-Exp(-y) says %v", y, u, got, want)
			}
		}
	}
}
