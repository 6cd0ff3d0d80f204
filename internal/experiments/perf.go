package experiments

import (
	"fmt"
	"math/rand"

	"fivegsim/internal/device"
	"fivegsim/internal/geo"
	"fivegsim/internal/netpath"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/speedtest"
	"fivegsim/internal/stats"
	"fivegsim/internal/trace"
	"fivegsim/internal/transport"
)

func init() {
	register("table1", Table1)
	register("fig1", Fig1)
	register("fig2", Fig2)
	register("fig3", Fig3)
	register("fig4", Fig4)
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("fig7", Fig7)
	register("fig8", Fig8)
	register("fig23", Fig23)
	register("fig24", Fig24)
}

func mustUE(m device.Model) device.Spec {
	s, err := device.Lookup(m)
	if err != nil {
		panic(err)
	}
	return s
}

// Table1 summarises the dataset the reproduction generates, mirroring the
// statistics table of §2.
func Table1(cfg Config) []*Table {
	t := &Table{ID: "table1", Title: "Dataset statistics (generated)",
		Header: []string{"Dataset", "Statistics"}}
	repeats := cfg.pick(3, 10)
	servers := len(geo.NewCarrierRegistry("Verizon").Servers) +
		len(geo.NewCarrierRegistry("T-Mobile").Servers) +
		len(geo.NewMinnesotaRegistry("Verizon").Servers) + len(geo.AzureRegions)
	perfTests := servers * repeats * 2 // both connection modes
	walkMin := trace.NumTraces5G * 20
	t.AddRow("5G Network Performance Tests", d(perfTests)+"+")
	t.AddRow("Unique servers tested with", d(servers))
	t.AddRow("Cumulative time of measurement traces", d(walkMin)+" minutes+")
	t.AddRow("Power Measurements @ 5000 Hz", d(trace.NumTraces5G*20)+" minutes+")
	t.AddRow("Total kilometers walked", f1(float64(trace.NumTraces5G)*trace.WalkLoopKm)+" km+")
	t.AddRow("# of real Web Page Load Tests", d(1500*8*2)+"+")
	t.AddRow("# of 5G smartphones (and models)", "7 (3)")
	return []*Table{t}
}

// Fig1 reproduces the RTT map: Verizon mmWave latency from a Minneapolis UE
// to carrier-hosted Speedtest servers across the US.
func Fig1(cfg Config) []*Table {
	t := &Table{ID: "fig1", Title: "[Verizon mmWave] RTT by server city (UE: Minneapolis)",
		Header: []string{"Server city", "Distance (km)", "RTT (ms)"}}
	c := speedtest.NewClient(mustUE(device.S20U), radio.VerizonNSAmmWave, geo.Minneapolis.Loc, cfg.Seed)
	reg := geo.NewCarrierRegistry("Verizon")
	repeats := cfg.pick(3, 10)
	for _, sum := range c.Campaign(reg.SortedByDistance(geo.Minneapolis.Loc), speedtest.Single, repeats, speedtest.RTTOnly) {
		t.AddRow(sum.Server.City.String(), f0(sum.DistanceKm), f1(sum.RTTMs))
	}
	t.Notes = append(t.Notes, "paper: lowest RTT ~6 ms at ~3 km; doubles by ~320 km")
	return []*Table{t}
}

// latencyByBand builds the Fig. 2/5 series: RTT vs distance per network.
func latencyByBand(cfg Config, id, title string, nets []radio.Network, ue device.Model) []*Table {
	t := &Table{ID: id, Title: title,
		Header: []string{"Network", "d=3km", "d=500km", "d=1000km", "d=1500km", "d=2500km"}}
	dists := []float64{3, 500, 1000, 1500, 2500}
	for _, n := range nets {
		row := []string{n.String()}
		for _, dd := range dists {
			p := netpath.Path{UE: mustUE(ue), Network: n, DistanceKm: dd}
			row = append(row, f1(p.RTTMs()))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// Fig2 is Verizon RTT vs UE-server distance for mmWave, low-band, and LTE.
func Fig2(cfg Config) []*Table {
	return latencyByBand(cfg, "fig2", "[Verizon] RTT (ms) vs UE-server distance",
		[]radio.Network{radio.VerizonNSAmmWave, radio.VerizonNSALowBand, radio.VerizonLTE},
		device.S20U)
}

// Fig5 is the T-Mobile equivalent, comparing SA and NSA low-band.
func Fig5(cfg Config) []*Table {
	ts := latencyByBand(cfg, "fig5", "[T-Mobile] RTT (ms) vs UE-server distance",
		[]radio.Network{radio.TMobileSALowBand, radio.TMobileNSALowBand, radio.TMobileLTE},
		device.S20U)
	ts[0].Notes = append(ts[0].Notes, "paper: no significant SA-vs-NSA RTT difference")
	return ts
}

// throughputVsDistance builds the Fig. 3/4/6/7 series.
func throughputVsDistance(cfg Config, id, title string, n radio.Network, ue device.Model, dir radio.Direction) []*Table {
	t := &Table{ID: id, Title: title,
		Header: []string{"Server", "Distance (km)", "RTT (ms)", "multi-conn (Mbps)", "single-conn (Mbps)"}}
	c := speedtest.NewClient(mustUE(ue), n, geo.Minneapolis.Loc, cfg.Seed)
	reg := geo.NewCarrierRegistry(string(n.Carrier))
	sorted := reg.SortedByDistance(geo.Minneapolis.Loc)
	// Sample across the distance range rather than every server.
	idxs := []int{0, len(sorted) / 5, 2 * len(sorted) / 5, 3 * len(sorted) / 5,
		4 * len(sorted) / 5, len(sorted) - 1}
	repeats := cfg.pick(3, 10)
	read := speedtest.DL
	if dir == radio.Uplink {
		read = speedtest.UL
	}
	for _, i := range idxs {
		s := sorted[i]
		multi := c.Repeat(s, speedtest.Multi, repeats, read)
		single := c.Repeat(s, speedtest.Single, repeats, read)
		mv, sv := multi.DLp95Mbps, single.DLp95Mbps
		if dir == radio.Uplink {
			mv, sv = multi.ULp95Mbps, single.ULp95Mbps
		}
		t.AddRow(s.City.Name, f0(multi.DistanceKm), f1(multi.RTTMs), f1(mv), f1(sv))
	}
	return []*Table{t}
}

// Fig3 is Verizon mmWave downlink vs distance (multi vs single connection).
func Fig3(cfg Config) []*Table {
	ts := throughputVsDistance(cfg, "fig3", "[Verizon mmWave] downlink p95 vs distance (S20U)",
		radio.VerizonNSAmmWave, device.S20U, radio.Downlink)
	ts[0].Notes = append(ts[0].Notes,
		"paper: multi-conn > 3 Gbps across all US servers; single-conn decays with distance")
	return ts
}

// Fig4 is Verizon mmWave uplink vs distance.
func Fig4(cfg Config) []*Table {
	ts := throughputVsDistance(cfg, "fig4", "[Verizon mmWave] uplink p95 vs distance (S20U)",
		radio.VerizonNSAmmWave, device.S20U, radio.Uplink)
	ts[0].Notes = append(ts[0].Notes, "paper: ~220 Mbps for both connection modes")
	return ts
}

// Fig6 is T-Mobile downlink: SA vs NSA low-band.
func Fig6(cfg Config) []*Table {
	nsa := throughputVsDistance(cfg, "fig6", "[T-Mobile NSA low-band] downlink p95 vs distance",
		radio.TMobileNSALowBand, device.S20U, radio.Downlink)[0]
	sa := throughputVsDistance(cfg, "fig6-sa", "[T-Mobile SA low-band] downlink p95 vs distance",
		radio.TMobileSALowBand, device.S20U, radio.Downlink)[0]
	sa.Notes = append(sa.Notes, "paper: SA reaches about half of NSA throughput")
	return []*Table{nsa, sa}
}

// Fig7 is T-Mobile uplink: SA vs NSA low-band.
func Fig7(cfg Config) []*Table {
	nsa := throughputVsDistance(cfg, "fig7", "[T-Mobile NSA low-band] uplink p95 vs distance",
		radio.TMobileNSALowBand, device.S20U, radio.Uplink)[0]
	sa := throughputVsDistance(cfg, "fig7-sa", "[T-Mobile SA low-band] uplink p95 vs distance",
		radio.TMobileSALowBand, device.S20U, radio.Uplink)[0]
	return []*Table{nsa, sa}
}

// Fig8 reproduces the Azure single-connection study: UDP vs 8-TCP vs tuned
// and default single TCP across the US Azure regions, on the rooted PX5.
func Fig8(cfg Config) []*Table {
	t := &Table{ID: "fig8", Title: "[Azure, PX5 mmWave] single-conn throughput by transport setting (Mbps)",
		Header: []string{"Region", "Distance (km)", "UDP", "TCP-8", "TCP-1 tuned", "TCP-1 default"}}
	ue := mustUE(device.PX5)
	repeats := cfg.pick(3, 10)
	var udps, tuneds []float64
	for _, region := range geo.AzureRegions {
		p := netpath.Path{UE: ue, Network: radio.VerizonNSAmmWave,
			DistanceKm: region.DistanceKm, ServerCapMbps: geo.AzureCapMbps, ExtraRTTMs: geo.AzureExtraRTTMs}
		params := p.Params(radio.Downlink)
		// Transport records for this region fold back under a region tag.
		sub := obs.Sub(cfg.Obs)
		mean := func(f func(rng *rand.Rand) transport.Result) float64 {
			s := 0.0
			for i := 0; i < repeats; i++ {
				s += f(rand.New(rand.NewSource(cfg.Seed + int64(i)*31))).MeanMbps
			}
			return s / float64(repeats)
		}
		udp := transport.SimulateUDP(params, 1e9, 15).MeanMbps
		t8 := mean(func(rng *rand.Rand) transport.Result {
			return transport.SimulateTCP(params, transport.TCPOptions{Flows: 8,
				WmemBytes: transport.TunedWmemBytes, Obs: sub}, rng)
		})
		tuned := mean(func(rng *rand.Rand) transport.Result {
			return transport.SimulateTCP(params, transport.TCPOptions{Flows: 1,
				WmemBytes: transport.TunedWmemBytes, Obs: sub}, rng)
		})
		def := mean(func(rng *rand.Rand) transport.Result {
			return transport.SimulateTCP(params, transport.TCPOptions{Flows: 1, Obs: sub}, rng)
		})
		udps = append(udps, udp)
		tuneds = append(tuneds, tuned)
		cfg.Obs.MergeTagged(sub, obs.S("region", region.Name))
		t.AddRow("Azure "+region.Name, f0(region.DistanceKm), f0(udp), f0(t8), f0(tuned), f0(def))
	}
	gap := stats.Mean(udps) - stats.Mean(tuneds)
	t.Notes = append(t.Notes,
		fmt.Sprintf("tuned 1-TCP falls short of UDP by %.0f Mbps on average (paper: ~886)", gap),
		"paper: tuning tcp_wmem improves default 1-TCP by 2.1x-3x")
	return []*Table{t}
}

// Fig23 compares PX5 (4CC) and S20U (8CC) peak throughput.
func Fig23(cfg Config) []*Table {
	t := &Table{ID: "fig23", Title: "Carrier aggregation: PX5 (4CC) vs S20U (8CC), Verizon mmWave",
		Header: []string{"UE", "DL CC", "multi-conn DL (Mbps)", "single-conn DL (Mbps)", "multi-conn UL (Mbps)"}}
	reg := geo.NewCarrierRegistry("Verizon")
	near, _ := reg.Nearest(geo.Minneapolis.Loc, geo.HostCarrier)
	repeats := cfg.pick(3, 10)
	for _, m := range []device.Model{device.PX5, device.S20U} {
		c := speedtest.NewClient(mustUE(m), radio.VerizonNSAmmWave, geo.Minneapolis.Loc, cfg.Seed)
		multi := c.Repeat(near, speedtest.Multi, repeats, speedtest.Both)
		single := c.Repeat(near, speedtest.Single, repeats, speedtest.DL)
		t.AddRow(m.Short(), d(mustUE(m).MmWaveDLCC), f0(multi.DLp95Mbps),
			f0(single.DLp95Mbps), f0(multi.ULp95Mbps))
	}
	t.Notes = append(t.Notes, "paper: S20U improves 50-60% over PX5 in both directions")
	return []*Table{t}
}

// Fig24 measures every Minnesota Speedtest server, exposing port caps.
func Fig24(cfg Config) []*Table {
	t := &Table{ID: "fig24", Title: "[Verizon mmWave] downlink by in-state server (port caps visible)",
		Header: []string{"#", "Server", "Cap (Mbps)", "DL p95 (Mbps)"}}
	c := speedtest.NewClient(mustUE(device.S20U), radio.VerizonNSAmmWave, geo.Minneapolis.Loc, cfg.Seed)
	reg := geo.NewMinnesotaRegistry("Verizon")
	repeats := cfg.pick(2, 5)
	for i, sum := range c.Campaign(reg.Servers, speedtest.Multi, repeats, speedtest.DL) {
		cap := "-"
		if sum.Server.CapMbps > 0 {
			cap = f0(sum.Server.CapMbps)
		}
		t.AddRow(d(i+1), sum.Server.Name, cap, f0(sum.DLp95Mbps))
	}
	t.Notes = append(t.Notes,
		"paper: carrier's own server > 3 Gbps; others ~2.8 Gbps; several bound by 2/1 Gbps ports")
	return []*Table{t}
}
