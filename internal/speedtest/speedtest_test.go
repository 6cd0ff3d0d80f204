package speedtest

import (
	"math"
	"testing"

	"fivegsim/internal/device"
	"fivegsim/internal/geo"
	"fivegsim/internal/radio"
)

func client(t *testing.T, m device.Model, n radio.Network, seed int64) *Client {
	t.Helper()
	spec, err := device.Lookup(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(spec, n, geo.Minneapolis.Loc, seed)
}

func nearFar(t *testing.T) (near, far geo.Server) {
	t.Helper()
	reg := geo.NewCarrierRegistry("Verizon")
	sorted := reg.SortedByDistance(geo.Minneapolis.Loc)
	return sorted[0], sorted[len(sorted)-1]
}

func TestMultiConnMmWaveFlatAcrossDistance(t *testing.T) {
	// Fig. 3: with multiple connections the S20U tops 3 Gbps against every
	// US server.
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 1)
	near, far := nearFar(t)
	for _, s := range []geo.Server{near, far} {
		sum := c.Repeat(s, Multi, 10, Both)
		if sum.DLp95Mbps < 3000 {
			t.Errorf("%s: multi-conn DL p95 = %.0f, want > 3000", s.Name, sum.DLp95Mbps)
		}
	}
}

func TestSingleConnDecaysWithDistance(t *testing.T) {
	// Fig. 3: single-connection throughput degrades as distance grows, but
	// reaches near-peak against the closest server.
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 2)
	near, far := nearFar(t)
	nearSum := c.Repeat(near, Single, 10, Both)
	farSum := c.Repeat(far, Single, 10, Both)
	if nearSum.DLp95Mbps < 2500 {
		t.Errorf("near single-conn DL = %.0f, want ~3000", nearSum.DLp95Mbps)
	}
	if farSum.DLp95Mbps >= 0.5*nearSum.DLp95Mbps {
		t.Errorf("far single-conn DL = %.0f vs near %.0f: want a steep decay",
			farSum.DLp95Mbps, nearSum.DLp95Mbps)
	}
}

func TestUplinkAround220(t *testing.T) {
	// Fig. 4: S20U uplink ~220 Mbps, single or multiple connections.
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 3)
	near, _ := nearFar(t)
	for _, mode := range []ConnMode{Single, Multi} {
		sum := c.Repeat(near, mode, 10, Both)
		if sum.ULp95Mbps < 180 || sum.ULp95Mbps > 240 {
			t.Errorf("%s uplink p95 = %.0f, want ~220", mode, sum.ULp95Mbps)
		}
	}
}

func TestRTTIncreasesWithDistance(t *testing.T) {
	// Fig. 1/2.
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 4)
	reg := geo.NewCarrierRegistry("Verizon")
	sorted := reg.SortedByDistance(geo.Minneapolis.Loc)
	nearSum := c.Repeat(sorted[0], Single, 5, Both)
	midSum := c.Repeat(sorted[len(sorted)/2], Single, 5, Both)
	farSum := c.Repeat(sorted[len(sorted)-1], Single, 5, Both)
	if !(nearSum.RTTMs < midSum.RTTMs && midSum.RTTMs < farSum.RTTMs) {
		t.Errorf("RTT not increasing: %.1f, %.1f, %.1f",
			nearSum.RTTMs, midSum.RTTMs, farSum.RTTMs)
	}
	if nearSum.RTTMs > 12 {
		t.Errorf("near RTT = %.1f ms, want close to the ~6 ms minimum", nearSum.RTTMs)
	}
}

func TestSAHalfOfNSA(t *testing.T) {
	// Figs. 6/7: T-Mobile SA reaches about half of NSA in both directions.
	near, _ := nearFar(t)
	nsa := client(t, device.S20U, radio.TMobileNSALowBand, 5).Repeat(near, Multi, 10, Both)
	sa := client(t, device.S20U, radio.TMobileSALowBand, 5).Repeat(near, Multi, 10, Both)
	dlRatio := sa.DLp95Mbps / nsa.DLp95Mbps
	if dlRatio < 0.35 || dlRatio > 0.65 {
		t.Errorf("SA/NSA DL ratio = %.2f, want ~0.5", dlRatio)
	}
	ulRatio := sa.ULp95Mbps / nsa.ULp95Mbps
	if ulRatio < 0.35 || ulRatio > 0.65 {
		t.Errorf("SA/NSA UL ratio = %.2f, want ~0.5", ulRatio)
	}
}

func TestPX5VsS20U(t *testing.T) {
	// Fig. 23: the 8CC S20U improves 50-60% over the 4CC PX5.
	near, _ := nearFar(t)
	px5 := client(t, device.PX5, radio.VerizonNSAmmWave, 6).Repeat(near, Multi, 10, Both)
	s20 := client(t, device.S20U, radio.VerizonNSAmmWave, 6).Repeat(near, Multi, 10, Both)
	gain := s20.DLp95Mbps/px5.DLp95Mbps - 1
	if gain < 0.4 || gain > 0.8 {
		t.Errorf("S20U over PX5 gain = %.0f%%, want ~50-60%%", gain*100)
	}
}

func TestPortCappedServers(t *testing.T) {
	// Fig. 24: third-party servers bounded by 1/2 Gbps port caps.
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 7)
	reg := geo.NewMinnesotaRegistry("Verizon")
	sums := c.Campaign(reg.Servers, Multi, 5, Both)
	if sums[0].DLp95Mbps < 3000 {
		t.Errorf("carrier server DL = %.0f, want > 3000", sums[0].DLp95Mbps)
	}
	var oneGig bool
	for _, s := range sums {
		if s.Server.CapMbps == 1000 {
			oneGig = true
			if s.DLp95Mbps > 1001 {
				t.Errorf("%s exceeds its 1 Gbps cap: %.0f", s.Server.Name, s.DLp95Mbps)
			}
			if s.DLp95Mbps < 900 {
				t.Errorf("%s should saturate its 1 Gbps cap, got %.0f", s.Server.Name, s.DLp95Mbps)
			}
		}
	}
	if !oneGig {
		t.Fatal("registry contains no 1 Gbps-capped server")
	}
}

func TestMultiConnCount(t *testing.T) {
	c := client(t, device.S20U, radio.VerizonNSAmmWave, 8)
	near, _ := nearFar(t)
	for i := 0; i < 20; i++ {
		m := c.Run(near, Multi, Both)
		if m.Conns < 15 || m.Conns > 25 {
			t.Fatalf("multi-conn count = %d, want 15-25", m.Conns)
		}
	}
	if m := c.Run(near, Single, Both); m.Conns != 1 {
		t.Errorf("single mode used %d connections", m.Conns)
	}
}

func TestRepeatDeterministic(t *testing.T) {
	near, _ := nearFar(t)
	a := client(t, device.S20U, radio.VerizonNSAmmWave, 99).Repeat(near, Multi, 5, Both)
	b := client(t, device.S20U, radio.VerizonNSAmmWave, 99).Repeat(near, Multi, 5, Both)
	if a.DLp95Mbps != b.DLp95Mbps || a.RTTMs != b.RTTMs {
		t.Error("campaign not deterministic for equal seeds")
	}
}

func TestSummaryString(t *testing.T) {
	near, _ := nearFar(t)
	sum := client(t, device.S20U, radio.VerizonNSAmmWave, 1).Repeat(near, Single, 2, Both)
	if sum.String() == "" {
		t.Error("empty summary string")
	}
	if sum.Runs != 2 {
		t.Errorf("runs = %d", sum.Runs)
	}
}

func TestRepeatClampsN(t *testing.T) {
	near, _ := nearFar(t)
	sum := client(t, device.S20U, radio.VerizonNSAmmWave, 1).Repeat(near, Single, 0, Both)
	if sum.Runs != 1 {
		t.Errorf("Repeat(0) ran %d times, want 1", sum.Runs)
	}
}

// TestUnreadDirectionKeepsStream: a test that reads fewer directions
// returns the read values with the same bits as one that reads both, reads
// NaN in the others, and leaves the client's stream where the full test
// does, so the next test is the same too. Three tests run back to back per
// set, over both connection modes, the nearest and farthest server, and a
// mmWave and a low-band network.
func TestUnreadDirectionKeepsStream(t *testing.T) {
	near, far := nearFar(t)
	for _, n := range []radio.Network{radio.VerizonNSAmmWave, radio.TMobileNSALowBand} {
		for _, s := range []geo.Server{near, far} {
			for _, mode := range []ConnMode{Single, Multi} {
				full := client(t, device.S20U, n, 11)
				var want [3]Measurement
				for i := range want {
					want[i] = full.Run(s, mode, Both)
				}
				wantNext := full.rng.Int63()
				for _, read := range []Dirs{RTTOnly, DL, UL} {
					c := client(t, device.S20U, n, 11)
					for i, w := range want {
						m := c.Run(s, mode, read)
						if m.RTTMs != w.RTTMs || m.Conns != w.Conns {
							t.Fatalf("%v %s %s read %b, test %d: rtt %v, %d conns, want %v, %d",
								n, s.Name, mode, read, i, m.RTTMs, m.Conns, w.RTTMs, w.Conns)
						}
						for _, d := range []struct {
							dir       radio.Direction
							got, full float64
						}{{radio.Downlink, m.DLMbps, w.DLMbps}, {radio.Uplink, m.ULMbps, w.ULMbps}} {
							if read.has(d.dir) && math.Float64bits(d.got) != math.Float64bits(d.full) ||
								!read.has(d.dir) && !math.IsNaN(d.got) {
								t.Fatalf("%v %s %s read %b, test %d: %s %v, want %v (NaN if unread)",
									n, s.Name, mode, read, i, d.dir, d.got, d.full)
							}
						}
					}
					if got := c.rng.Int63(); got != wantNext {
						t.Fatalf("%v %s %s read %b: next draw %d, want %d", n, s.Name, mode, read, got, wantNext)
					}
				}
			}
		}
	}
}

// TestRepeatUnreadDirectionIsNaN: Repeat summarises only what it reads;
// the other direction's p95 is NaN, and the read one equals Both's.
func TestRepeatUnreadDirectionIsNaN(t *testing.T) {
	near, _ := nearFar(t)
	both := client(t, device.S20U, radio.VerizonNSAmmWave, 3).Repeat(near, Multi, 3, Both)
	dl := client(t, device.S20U, radio.VerizonNSAmmWave, 3).Repeat(near, Multi, 3, DL)
	ul := client(t, device.S20U, radio.VerizonNSAmmWave, 3).Repeat(near, Multi, 3, UL)
	if dl.DLp95Mbps != both.DLp95Mbps || !math.IsNaN(dl.ULp95Mbps) || dl.RTTMs != both.RTTMs {
		t.Errorf("DL-only summary %+v, want DL %v, UL NaN, RTT %v", dl, both.DLp95Mbps, both.RTTMs)
	}
	if ul.ULp95Mbps != both.ULp95Mbps || !math.IsNaN(ul.DLp95Mbps) || ul.RTTMs != both.RTTMs {
		t.Errorf("UL-only summary %+v, want UL %v, DL NaN, RTT %v", ul, both.ULp95Mbps, both.RTTMs)
	}
}
