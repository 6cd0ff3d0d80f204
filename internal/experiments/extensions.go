package experiments

import (
	"fmt"
	"math/rand"

	"fivegsim/internal/abr"
	"fivegsim/internal/device"
	"fivegsim/internal/geo"
	"fivegsim/internal/netpath"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/trace"
	"fivegsim/internal/transport"
)

func init() {
	register("extension-midband", ExtensionMidBand)
	register("extension-bbr", ExtensionBBR)
	register("extension-abandon", ExtensionAbandon)
	register("longitudinal", Longitudinal)
}

// ExtensionMidBand projects T-Mobile's mid-band (n41) service, which the
// paper's dataset excluded (footnote 1), onto the same axes the paper uses
// for the other bands: peak rates, air latency, coverage, and the
// power-efficiency position between low-band and mmWave. This is the
// "future work" band — the comparison shows why mid-band became the
// mainstream 5G deployment: most of mmWave's rate advantage at a fraction
// of its power and coverage cost.
func ExtensionMidBand(cfg Config) []*Table {
	t := &Table{ID: "extension-midband", Title: "Projected mid-band (n41) vs the measured bands (S20U)",
		Header: []string{"Band", "peak DL (Mbps)", "peak UL (Mbps)", "air RTT (ms)",
			"coverage (km)", "power @200Mbps DL (W)", "nJ/bit @200Mbps"}}
	ue, err := device.Lookup(device.S20U)
	if err != nil {
		panic(err)
	}
	rows := []struct {
		name string
		net  radio.Network
	}{
		{"LTE", radio.TMobileLTE},
		{"low-band n71 (NSA)", radio.TMobileNSALowBand},
		{"mid-band n41 (projected)", radio.Network{Carrier: radio.TMobile, Mode: radio.ModeNSA, Band: radio.BandN41, CapacityScale: 1}},
		{"mmWave n261", radio.VerizonNSAmmWave},
	}
	for _, r := range rows {
		band := r.net.Band
		peakDL := ue.LinkCapacityMbps(r.net, radio.Downlink, band.PeakRSRPDbm)
		peakUL := ue.LinkCapacityMbps(r.net, radio.Uplink, band.PeakRSRPDbm)
		th := 200.0
		if th > peakDL {
			th = peakDL
		}
		c := power.MustCurve(device.S20U, band.Class, radio.Downlink)
		p := c.PowerMw(th)
		t.AddRow(r.name, f0(peakDL), f0(peakUL), f1(band.AirRTTMs),
			f2(band.CoverageKm), f2(p/1000), f2(c.EfficiencyUJPerBit(th)*1000))
	}
	// Latency composition to a nearby server for the projected band.
	mid := netpath.Path{UE: ue, Network: rows[2].net, DistanceKm: 10}
	t.Notes = append(t.Notes,
		"mid-band power reuses the low-band curve (the paper did not measure n41); its rate sits between low-band and mmWave",
		"projected n41 RTT to a 10 km server: "+f1(mid.RTTMs())+" ms",
		"Xu et al. (SIGCOMM'20) measured ~0.8-1 Gbps on commercial mid-band, matching this projection's order")
	return []*Table{t}
}

// ExtensionBBR asks the what-if behind §3.2's TCP findings: replace CUBIC
// with a rate-based (BBR-style) controller and the single-connection
// throughput cliff versus distance largely disappears, because random and
// radio-event losses no longer trigger multiplicative decrease.
func ExtensionBBR(cfg Config) []*Table {
	t := &Table{ID: "extension-bbr", Title: "[Azure, PX5 mmWave] single connection: BBR vs CUBIC (64 MiB wmem)",
		Header: []string{"Region", "Distance (km)", "UDP", "BBR", "CUBIC tuned", "BBR/CUBIC"}}
	ue, err := device.Lookup(device.PX5)
	if err != nil {
		panic(err)
	}
	repeats := cfg.pick(3, 10)
	for _, region := range geo.AzureRegions {
		p := netpath.Path{UE: ue, Network: radio.VerizonNSAmmWave,
			DistanceKm: region.DistanceKm, ServerCapMbps: geo.AzureCapMbps, ExtraRTTMs: geo.AzureExtraRTTMs}
		params := p.Params(radio.Downlink)
		opts := transport.TCPOptions{Flows: 1, WmemBytes: 64 << 20}
		var bbr, cubic float64
		for i := 0; i < repeats; i++ {
			bbr += transport.SimulateBBR(params, opts,
				rand.New(rand.NewSource(cfg.Seed+int64(i)*31))).MeanMbps
			cubic += transport.SimulateTCP(params, opts,
				rand.New(rand.NewSource(cfg.Seed+int64(i)*31))).MeanMbps
		}
		bbr /= float64(repeats)
		cubic /= float64(repeats)
		udp := transport.SimulateUDP(params, 1e9, 15).MeanMbps
		t.AddRow("Azure "+region.Name, f0(region.DistanceKm), f0(udp), f0(bbr),
			f0(cubic), f2(bbr/cubic)+"x")
	}
	t.Notes = append(t.Notes,
		"a pacing-based controller recovers most of the UDP-vs-TCP gap of Fig. 8 at every distance")
	return []*Table{t}
}

// ExtensionAbandon evaluates mid-download chunk abandonment, the rollback
// mechanism §5.3 points out is missing from chunk-granular ABR: the player
// aborts a doomed download and refetches the chunk at the lowest track.
func ExtensionAbandon(cfg Config) []*Table {
	n := cfg.pick(20, trace.NumTraces5G)
	tr5 := trace.CachedSet5G(n, traceLenS, cfg.Seed)
	v := video5G()
	t := &Table{ID: "extension-abandon", Title: "Chunk abandonment on mmWave 5G (fastMPC)",
		Header: []string{"Player", "bitrate", "stall%", "abandons/session", "wasted (Mb)"}}
	for _, abandon := range []bool{false, true} {
		var br, stall, ab, waste float64
		for _, tr := range tr5 {
			r := abr.Simulate(v, &abr.MPC{}, tr, abr.Options{Abandon: abandon})
			br += r.NormBitrate
			stall += r.StallPct
			ab += float64(r.Abandons)
			waste += r.WastedMb
		}
		f := float64(n)
		name := "standard"
		if abandon {
			name = "with abandonment"
		}
		t.AddRow(name, f2(br/f), pct(stall/f), f1(ab/f), f0(waste/f))
	}
	t.Notes = append(t.Notes,
		"§5.3: \"once made, such decisions cannot be rolled back\" — abandonment is that rollback",
		"stall relief is paid for in wasted downlink bytes")
	return []*Table{t}
}

// Longitudinal reproduces §3.2's comparisons against the 5Gophers (2019)
// baseline: between the initial mmWave deployments and this study, the
// lowest RTT halved (carrier edge build-out plus NR frame improvements),
// downlink grew 50-60% (4CC -> 8CC carrier aggregation on both the
// infrastructure and the X55 modem), and uplink improved 3-4x (1CC -> 2CC
// plus link-budget work).
func Longitudinal(cfg Config) []*Table {
	// The 2019-era deployment: X50-class UE (4CC DL / 1CC UL, ~2 Gbps
	// ceiling), weaker uplink, and higher air + core latency.
	band2019 := radio.BandN261
	band2019.AirRTTMs = 7.0
	band2019.PeakULMbpsPerCC = 60
	net2019 := radio.Network{Carrier: radio.Verizon, Mode: radio.ModeNSA,
		Band: band2019, CapacityScale: 1}
	ue2019 := device.Spec{
		Model: "2019 X50-class UE", Modem: "Snapdragon X50",
		MmWaveDLCC: 4, MmWaveULCC: 1, LowBandCC: 1, LTECC: 2,
		MaxDLMbps: 2000, MaxULMbps: 60,
	}
	ue2021, err := device.Lookup(device.S20U)
	if err != nil {
		panic(err)
	}

	t := &Table{ID: "longitudinal", Title: "2019 (5Gophers baseline) vs this study, mmWave near-server",
		Header: []string{"Era", "min RTT (ms)", "DL multi-conn (Mbps)", "UL (Mbps)"}}
	measure := func(ue device.Spec, n radio.Network, core float64) (float64, float64, float64) {
		p := netpath.Path{UE: ue, Network: n, DistanceKm: 3, ExtraRTTMs: core}
		rng := rand.New(rand.NewSource(cfg.Seed))
		dl := transport.SimulateTCP(p.Params(radio.Downlink),
			transport.TCPOptions{Flows: 20, WmemBytes: transport.TunedWmemBytes}, rng).MeanMbps
		ul := transport.SimulateTCP(p.Params(radio.Uplink),
			transport.TCPOptions{Flows: 20, WmemBytes: transport.TunedWmemBytes}, rng).MeanMbps
		return p.RTTMs(), dl, ul
	}
	// 2019: no carrier-edge Speedtest servers yet — the first hop out adds
	// Internet-side latency (the paper's [C1]/[C2] challenges).
	r19, d19, u19 := measure(ue2019, net2019, 3.0)
	r21, d21, u21 := measure(ue2021, radio.VerizonNSAmmWave, 0)
	t.AddRow("2019 (baseline)", f1(r19), f0(d19), f0(u19))
	t.AddRow("2021 (this study)", f1(r21), f0(d21), f0(u21))
	t.Notes = append(t.Notes,
		fmt.Sprintf("RTT improvement %.0f%% (paper: ~50%%); DL +%.0f%% (paper: 50-60%%); UL %.1fx (paper: 3-4x)",
			(1-r21/r19)*100, (d21/d19-1)*100, u21/u19))
	return []*Table{t}
}
