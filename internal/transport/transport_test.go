package transport

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mmWavePath is a representative mmWave path for a UE near its server.
func mmWavePath(rttS float64) PathParams {
	return PathParams{CapacityMbps: 2200, RTTSeconds: rttS,
		LossRate: 1e-6, LossEventRate: 0.15}
}

// meanOver averages MeanMbps over n seeded runs.
func meanOver(n int, f func(rng *rand.Rand) Result) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += f(rand.New(rand.NewSource(int64(i) + 1))).MeanMbps
	}
	return s / float64(n)
}

func TestUDPReachesCapacity(t *testing.T) {
	p := mmWavePath(0.015)
	r := SimulateUDP(p, 5000, 15)
	if r.MeanMbps < 0.99*p.CapacityMbps*(1-p.LossRate) {
		t.Errorf("UDP mean = %v, want ~capacity %v", r.MeanMbps, p.CapacityMbps)
	}
	// Target below capacity: delivered = target.
	r = SimulateUDP(p, 100, 15)
	if math.Abs(r.MeanMbps-100*(1-p.LossRate)) > 0.01 {
		t.Errorf("UDP at 100 Mbps target = %v", r.MeanMbps)
	}
	if len(r.PerSecondMbps) != 15 {
		t.Errorf("per-second samples = %d, want 15", len(r.PerSecondMbps))
	}
	if r.Bytes <= 0 {
		t.Error("no bytes recorded")
	}
}

func TestUDPDefensiveInputs(t *testing.T) {
	r := SimulateUDP(PathParams{CapacityMbps: 100}, -5, 0)
	if r.MeanMbps != 0 {
		t.Errorf("negative target should deliver 0, got %v", r.MeanMbps)
	}
	if len(r.PerSecondMbps) != 15 {
		t.Errorf("default duration should be 15 s, got %d", len(r.PerSecondMbps))
	}
}

func TestDefaultWmemLimitsSingleConnection(t *testing.T) {
	// §3.2/Fig. 8: with default tcp_wmem, a single connection stays in the
	// hundreds of Mbps even though the path fits gigabits.
	p := mmWavePath(0.015)
	got := meanOver(10, func(rng *rand.Rand) Result {
		return SimulateTCP(p, TCPOptions{Flows: 1}, rng)
	})
	if got > 700 {
		t.Errorf("default 1-TCP = %v Mbps, want window-limited (< 700)", got)
	}
	if got < 100 {
		t.Errorf("default 1-TCP = %v Mbps, unrealistically low", got)
	}
}

func TestTunedWmemImprovement(t *testing.T) {
	// Raising tcp_wmem improves single-connection throughput by ~2.1-3x
	// (§3.2). Allow a slightly wider band for the fluid model.
	for _, rtt := range []float64{0.015, 0.025, 0.04} {
		p := mmWavePath(rtt)
		def := meanOver(10, func(rng *rand.Rand) Result {
			return SimulateTCP(p, TCPOptions{Flows: 1}, rng)
		})
		tun := meanOver(10, func(rng *rand.Rand) Result {
			return SimulateTCP(p, TCPOptions{Flows: 1, WmemBytes: TunedWmemBytes}, rng)
		})
		ratio := tun / def
		if ratio < 1.8 || ratio > 4.0 {
			t.Errorf("rtt=%v: tuned/default = %.2f, want ~2.1-3x", rtt, ratio)
		}
	}
}

func TestTunedStillBelowUDP(t *testing.T) {
	// Even tuned, 1-TCP falls well short of UDP (Fig. 8: ~886 Mbps short
	// on average).
	p := mmWavePath(0.025)
	tun := meanOver(10, func(rng *rand.Rand) Result {
		return SimulateTCP(p, TCPOptions{Flows: 1, WmemBytes: TunedWmemBytes}, rng)
	})
	udp := SimulateUDP(p, 5000, 15).MeanMbps
	if udp-tun < 300 {
		t.Errorf("tuned 1-TCP gap to UDP = %v Mbps, want a substantial shortfall", udp-tun)
	}
}

func TestThroughputDecaysWithRTT(t *testing.T) {
	// Fig. 3/8: single-connection TCP throughput decays as UE-server
	// distance (RTT) grows.
	rtts := []float64{0.010, 0.020, 0.040, 0.065}
	var prev float64 = math.Inf(1)
	for _, rtt := range rtts {
		p := mmWavePath(rtt)
		got := meanOver(10, func(rng *rand.Rand) Result {
			return SimulateTCP(p, TCPOptions{Flows: 1, WmemBytes: TunedWmemBytes}, rng)
		})
		if got >= prev {
			t.Errorf("throughput did not decay: %v Mbps at rtt %v >= %v", got, rtt, prev)
		}
		prev = got
	}
}

func TestMultipleConnectionsFillThePipe(t *testing.T) {
	// Fig. 3: multiple connections achieve near-capacity across distances.
	for _, rtt := range []float64{0.010, 0.030, 0.060} {
		p := mmWavePath(rtt)
		got := meanOver(5, func(rng *rand.Rand) Result {
			return SimulateTCP(p, TCPOptions{Flows: 20}, rng)
		})
		if got < 0.85*p.CapacityMbps {
			t.Errorf("rtt=%v: 20-conn throughput = %v, want >= 85%% of %v",
				rtt, got, p.CapacityMbps)
		}
	}
}

func TestEightFlowsNearUDP(t *testing.T) {
	// Fig. 8: a small-but-noticeable gap between UDP and 8-TCP.
	p := mmWavePath(0.020)
	t8 := meanOver(5, func(rng *rand.Rand) Result {
		return SimulateTCP(p, TCPOptions{Flows: 8, WmemBytes: TunedWmemBytes}, rng)
	})
	udp := SimulateUDP(p, 5000, 15).MeanMbps
	if t8 >= udp {
		t.Errorf("8-TCP (%v) should not beat UDP (%v)", t8, udp)
	}
	if t8 < 0.9*udp {
		t.Errorf("8-TCP (%v) should be within 10%% of UDP (%v)", t8, udp)
	}
}

func TestLowBandPathStable(t *testing.T) {
	// A low-band path (modest capacity, no mmWave loss events) should be
	// fully utilised by even a single default connection.
	p := PathParams{CapacityMbps: 150, RTTSeconds: 0.030, LossRate: 1e-6}
	got := meanOver(5, func(rng *rand.Rand) Result {
		return SimulateTCP(p, TCPOptions{Flows: 1}, rng)
	})
	if got < 0.85*150 {
		t.Errorf("low-band 1-TCP = %v, want >= 85%% of 150", got)
	}
}

func TestResultAccounting(t *testing.T) {
	p := mmWavePath(0.020)
	r := SimulateTCP(p, TCPOptions{Flows: 4, DurationS: 10}, rand.New(rand.NewSource(7)))
	if len(r.PerSecondMbps) != 10 {
		t.Fatalf("samples = %d, want 10", len(r.PerSecondMbps))
	}
	// Bytes must equal the integral of the per-second series.
	sum := 0.0
	for _, v := range r.PerSecondMbps {
		sum += v * 1e6 / 8
	}
	if math.Abs(sum-r.Bytes) > 0.01*r.Bytes {
		t.Errorf("bytes %.0f vs series integral %.0f", r.Bytes, sum)
	}
	if r.MeanMbps <= 0 || r.SteadyMbps <= 0 {
		t.Error("zero throughput recorded")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := mmWavePath(0.020)
	a := SimulateTCP(p, TCPOptions{Flows: 3}, rand.New(rand.NewSource(42)))
	b := SimulateTCP(p, TCPOptions{Flows: 3}, rand.New(rand.NewSource(42)))
	if a.MeanMbps != b.MeanMbps || a.LossEvents != b.LossEvents {
		t.Error("simulation not deterministic for a fixed seed")
	}
}

// Property: TCP goodput never exceeds path capacity nor UDP.
func TestTCPBoundedByCapacityProperty(t *testing.T) {
	f := func(seed int64, flows8 uint8, rttMs uint8) bool {
		flows := int(flows8%24) + 1
		rtt := (float64(rttMs%80) + 5) / 1000
		p := mmWavePath(rtt)
		r := SimulateTCP(p, TCPOptions{Flows: flows, DurationS: 8},
			rand.New(rand.NewSource(seed)))
		if r.MeanMbps > p.CapacityMbps*1.01 {
			return false
		}
		for _, v := range r.PerSecondMbps {
			if v > p.CapacityMbps*1.05 || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: more flows never (materially) decrease aggregate throughput.
func TestMoreFlowsMoreThroughputProperty(t *testing.T) {
	for _, rtt := range []float64{0.015, 0.040} {
		p := mmWavePath(rtt)
		prev := 0.0
		for _, flows := range []int{1, 4, 16} {
			got := meanOver(5, func(rng *rand.Rand) Result {
				return SimulateTCP(p, TCPOptions{Flows: flows}, rng)
			})
			if got < prev*0.9 {
				t.Errorf("rtt=%v flows=%d: throughput %v dropped vs %v", rtt, flows, got, prev)
			}
			if got > prev {
				prev = got
			}
		}
	}
}

func TestTransferTime(t *testing.T) {
	// Zero bytes: handshake only.
	if got := TransferTime(0, 0.05, 100, 10); got != 0.05 {
		t.Errorf("zero-byte transfer = %v, want RTT", got)
	}
	// Tiny object (1 KB) fits in the initial window: handshake + drain.
	small := TransferTime(1000, 0.05, 100, 10)
	if small < 0.05 || small > 0.11 {
		t.Errorf("1KB fetch = %v, want ~1-2 RTT", small)
	}
	// Large object approaches capacity-limited time.
	bytes := 50e6 // 50 MB
	gotT := TransferTime(bytes, 0.02, 1000, 10)
	floor := bytes * 8 / (1000 * 1e6)
	if gotT < floor {
		t.Errorf("50MB fetch = %v, below capacity floor %v", gotT, floor)
	}
	if gotT > floor*1.8 {
		t.Errorf("50MB fetch = %v, too much overhead vs floor %v", gotT, floor)
	}
	// Faster link -> faster fetch.
	if TransferTime(1e6, 0.02, 1000, 10) >= TransferTime(1e6, 0.02, 50, 10) {
		t.Error("faster link did not reduce fetch time")
	}
	// Longer RTT -> slower fetch.
	if TransferTime(1e6, 0.01, 100, 10) >= TransferTime(1e6, 0.08, 100, 10) {
		t.Error("longer RTT did not increase fetch time")
	}
	// Zero capacity is infinite.
	if !math.IsInf(TransferTime(1e6, 0.02, 0, 10), 1) {
		t.Error("zero-capacity transfer should be infinite")
	}
}

// Property: TransferTime is monotone in object size.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rtt := 0.005 + rng.Float64()*0.1
		capMbps := 10 + rng.Float64()*2000
		b1 := rng.Float64() * 1e7
		b2 := rng.Float64() * 1e7
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		return TransferTime(b1, rtt, capMbps, 10) <= TransferTime(b2, rtt, capMbps, 10)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTCPDrawsMatchesSimulateTCP pins the draw count a caller uses to skip
// a run: TCPDraws against hand-checked counts (the float clock takes 1501
// steps of 10 ms over 15 s and 501 of 30 ms, one more than the division
// says), and over random paths, a stream advanced by TCPDraws calls to
// Float64 against one that ran SimulateTCP. Both cover the defaults (RTT
// of 0 or below, 0 flows, a 0 s duration) and durations that are not a
// multiple of the RTT.
func TestTCPDrawsMatchesSimulateTCP(t *testing.T) {
	for _, c := range []struct {
		rtt  float64
		o    TCPOptions
		want int
	}{
		{0.01, TCPOptions{Flows: 1, DurationS: 15}, 1501},
		{0.03, TCPOptions{Flows: 20}, 20 * 501},
		{0, TCPOptions{}, 15001},
		{-0.02, TCPOptions{Flows: 3, DurationS: 0.5}, 3 * 500},
		{0.007, TCPOptions{Flows: 2, DurationS: 2.5}, 2 * 358},
		{0.02, TCPOptions{Flows: 25, DurationS: 0.05}, 25 * 3},
	} {
		if got := TCPDraws(mmWavePath(c.rtt), c.o); got != c.want {
			t.Errorf("TCPDraws(rtt %v, %+v) = %d, want %d", c.rtt, c.o, got, c.want)
		}
	}

	gen := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		p := PathParams{CapacityMbps: 10 + gen.Float64()*4000, LossRate: gen.Float64() * 1e-3,
			LossEventRate: gen.Float64() * 2}
		switch i % 6 {
		case 0:
			p.RTTSeconds = 0
		case 1:
			p.RTTSeconds = -gen.Float64()
		case 2:
			p.RTTSeconds = float64(1+gen.Intn(60)) / 1000 // round RTTs: 1-60 ms
		default:
			p.RTTSeconds = 0.002 + gen.Float64()*0.08
		}
		o := TCPOptions{Flows: gen.Intn(26), WmemBytes: float64(1+gen.Intn(64)) * (1 << 20)}
		switch i % 5 {
		case 0:
			o.DurationS = 0
		case 1:
			o.DurationS = float64(1 + gen.Intn(15)) // whole seconds
		default:
			o.DurationS = 0.01 + gen.Float64()*4
		}
		if p.RTTSeconds <= 0 && o.DurationS == 0 {
			o.DurationS = 0.5 // 15 s of 1 ms steps is slow under -race
		}
		seed := gen.Int63()
		ran, skipped := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		SimulateTCP(p, o, ran)
		for n := TCPDraws(p, o); n > 0; n-- {
			skipped.Float64()
		}
		for k := 0; k < 4; k++ {
			if a, b := ran.Int63(), skipped.Int63(); a != b {
				t.Fatalf("case %d (%+v, flows %d, %v s): draw %d after SimulateTCP is %d, after %d skipped draws %d",
					i, p, o.Flows, o.DurationS, k, a, TCPDraws(p, o), b)
			}
		}
	}
}
