package trace

import (
	"math"
	"testing"
	"testing/quick"

	"fivegsim/internal/stats"
)

func pool5G(t *testing.T) []float64 {
	t.Helper()
	var all []float64
	for i := 0; i < 25; i++ {
		all = append(all, Gen5GmmWave(int64(i), 300)...)
	}
	return all
}

func pool4G(t *testing.T) []float64 {
	t.Helper()
	var all []float64
	for i := 0; i < 25; i++ {
		all = append(all, Gen4G(int64(i), 300)...)
	}
	return all
}

func TestFiveGStatisticsMatchLumos5G(t *testing.T) {
	all := pool5G(t)
	mean := stats.Mean(all)
	median := stats.Median(all)
	// §5.1 calibration targets: median near the 160 Mbps top track, mean
	// roughly 10x the 4G mean.
	if median < 130 || median > 200 {
		t.Errorf("5G median = %.0f, want ~160", median)
	}
	if mean < 170 || mean > 270 {
		t.Errorf("5G mean = %.0f, want ~215", mean)
	}
	// High variance is the defining character.
	if sd := stats.StdDev(all); sd < 100 {
		t.Errorf("5G std dev = %.0f, want large (>100)", sd)
	}
}

func TestFourGStatistics(t *testing.T) {
	all := pool4G(t)
	mean := stats.Mean(all)
	median := stats.Median(all)
	if median < 15 || median > 27 {
		t.Errorf("4G median = %.1f, want ~20", median)
	}
	if mean < 15 || mean > 27 {
		t.Errorf("4G mean = %.1f, want ~21", mean)
	}
	// 4G is much smoother than 5G.
	if sd := stats.StdDev(all); sd > 15 {
		t.Errorf("4G std dev = %.1f, want small", sd)
	}
}

func TestMeanRatioAbout10x(t *testing.T) {
	ratio := stats.Mean(pool5G(t)) / stats.Mean(pool4G(t))
	if ratio < 7 || ratio > 14 {
		t.Errorf("5G/4G mean ratio = %.1f, want ~10", ratio)
	}
}

func TestFiveGHasDeepDips(t *testing.T) {
	// Blockage regime must appear: stretches well below 50 Mbps.
	tr := Gen5GmmWave(3, 600)
	low := 0
	for _, v := range tr {
		if v < 50 {
			low++
		}
	}
	if low == 0 {
		t.Error("no blockage dips in a 10-minute mmWave trace")
	}
	if low > len(tr)/2 {
		t.Errorf("blocked %d of %d seconds: too much", low, len(tr))
	}
}

func TestTracesPositive(t *testing.T) {
	f := func(seed int64) bool {
		for _, v := range Gen5GmmWave(seed, 120) {
			if v <= 0 {
				return false
			}
		}
		for _, v := range Gen4G(seed, 120) {
			if v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGenDeterministic(t *testing.T) {
	a := Gen5GmmWave(42, 100)
	b := Gen5GmmWave(42, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestGenSets(t *testing.T) {
	set5 := GenSet5G(NumTraces5G, 60, 1)
	set4 := GenSet4G(NumTraces4G, 60, 1)
	if len(set5) != 121 || len(set4) != 175 {
		t.Fatalf("set sizes = %d/%d, want 121/175", len(set5), len(set4))
	}
	// Traces differ from each other.
	if set5[0][0] == set5[1][0] && set5[0][1] == set5[1][1] && set5[0][2] == set5[1][2] {
		t.Error("5G traces look identical")
	}
}

func TestWalkMmWaveCharacteristics(t *testing.T) {
	samples := WalkMmWave(1, 1200) // a 20-minute walk
	if len(samples) != 1200 {
		t.Fatalf("samples = %d", len(samples))
	}
	var rsrps, ths []float64
	for _, s := range samples {
		rsrps = append(rsrps, s.RSRPDbm)
		ths = append(ths, s.DLMbps)
	}
	// Fig. 13/14 RSRP range: roughly -110 to -60 dBm.
	if stats.Min(rsrps) < -125 || stats.Max(rsrps) > -45 {
		t.Errorf("RSRP range [%.0f, %.0f] outside plausible mmWave walk",
			stats.Min(rsrps), stats.Max(rsrps))
	}
	if stats.Max(rsrps)-stats.Min(rsrps) < 20 {
		t.Error("walking RSRP shows too little variation")
	}
	// Throughput spans from near-zero (blocked) to gigabit-class (near a
	// panel with LoS).
	if stats.Max(ths) < 800 {
		t.Errorf("max walking throughput = %.0f, want gigabit-class", stats.Max(ths))
	}
	if stats.Min(ths) > 100 {
		t.Errorf("min walking throughput = %.0f, want blockage dips", stats.Min(ths))
	}
}

func TestWalkThroughputTracksSignal(t *testing.T) {
	// Correlation between RSRP and throughput must be clearly positive
	// (the channel bounds the rate) but well below 1: application demand
	// varies independently, which is why the power model needs both
	// features (§4.5).
	samples := WalkMmWave(2, 1200)
	var sr, st, srr, stt, srt float64
	n := float64(len(samples))
	for _, s := range samples {
		sr += s.RSRPDbm
		st += s.DLMbps
		srr += s.RSRPDbm * s.RSRPDbm
		stt += s.DLMbps * s.DLMbps
		srt += s.RSRPDbm * s.DLMbps
	}
	corr := (n*srt - sr*st) / math.Sqrt((n*srr-sr*sr)*(n*stt-st*st))
	if corr < 0.25 {
		t.Errorf("RSRP-throughput correlation = %.2f, want positive", corr)
	}
	if corr > 0.9 {
		t.Errorf("RSRP-throughput correlation = %.2f: demand variation missing", corr)
	}
}

func TestWalkLowBandCluster(t *testing.T) {
	// The low-band walk forms the low-throughput cluster of Fig. 13:
	// modest rates, never gigabit.
	samples := WalkLowBand(1, 1200)
	var ths []float64
	for _, s := range samples {
		ths = append(ths, s.DLMbps)
	}
	if stats.Max(ths) > 120 {
		t.Errorf("low-band walk max = %.0f Mbps, want < 120", stats.Max(ths))
	}
	if stats.Mean(ths) < 10 {
		t.Errorf("low-band walk mean = %.1f Mbps, suspiciously low", stats.Mean(ths))
	}
}

func TestWalkPosLoops(t *testing.T) {
	// Position stays on the loop and reverses direction each lap.
	for tS := 0.0; tS < 5000; tS += 13 {
		p := walkPos(tS)
		if p < 0 || p > WalkLoopKm {
			t.Fatalf("walk position %v off the loop at t=%v", p, tS)
		}
	}
	// Out and back: position at one full loop time returns toward start.
	loopT := WalkLoopKm / WalkSpeedKmS
	if p := walkPos(2 * loopT * 0.999); p > 0.1 {
		t.Errorf("after two laps position = %v, want near 0", p)
	}
}
