package experiments

import (
	"fmt"

	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/rrc"
	"fivegsim/internal/rrcprobe"
	"fivegsim/internal/stats"
)

func init() {
	register("fig10", Fig10)
	register("fig25", Fig25)
	register("table2", Table2)
	register("table7", Table7)
}

// fig10Networks are the four panels of Fig. 10.
var fig10Networks = []radio.Network{
	radio.TMobileSALowBand,
	radio.TMobileNSALowBand,
	radio.VerizonNSAmmWave,
	radio.TMobileLTE,
}

// fig25Networks adds the remaining two panels of the appendix version.
var fig25Networks = []radio.Network{
	radio.VerizonNSAmmWave,
	radio.TMobileSALowBand,
	radio.VerizonNSALowBand,
	radio.TMobileNSALowBand,
	radio.VerizonLTE,
	radio.TMobileLTE,
}

// probeSweep builds network n's RRC-Probe and runs the sweep Fig. 10/25
// and Table 7 share: cfg.pick(10, 25) probes per 0.5 s idle-gap step up to
// a 16 s gap, or 40 s for Verizon NSA low-band, whose 18.8 s LTE tail
// needs the longer sweep, and 18 s for T-Mobile SA. It returns the prober,
// whose events the caller counts, the samples and the largest gap.
func probeSweep(cfg Config, n radio.Network) (*rrcprobe.Prober, []rrcprobe.Sample, float64) {
	p, err := rrcprobe.New(n, cfg.Seed)
	if err != nil {
		panic(err)
	}
	maxGap := 16.0
	switch n.Key() {
	case radio.VerizonNSALowBand.Key():
		maxGap = 40
	case radio.TMobileSALowBand.Key():
		maxGap = 18
	}
	return p, p.Run(maxGap, 0.5, cfg.pick(10, 25)), maxGap
}

// probeScatter runs RRC-Probe for a set of networks and reports the
// RTT-versus-idle-gap profile (the scatter of Fig. 10/25) summarised per
// gap, plus the per-network state inference.
func probeScatter(cfg Config, id, title string, nets []radio.Network) []*Table {
	var out []*Table
	for _, n := range nets {
		p, samples, maxGap := probeSweep(cfg, n)
		cfg.countEvents(p.Events)
		t := &Table{ID: id, Title: fmt.Sprintf("%s: %s RTT vs idle gap", title, n),
			Header: []string{"Idle gap (s)", "min RTT (ms)", "median RTT (ms)", "reply radio"}}
		// Summarise at 2 s resolution for readability.
		for gap := 0.0; gap <= maxGap; gap += 2.0 {
			var minR, medR float64
			var c4, c5 int
			var rtts []float64
			for _, s := range samples {
				if s.IdleGapS >= gap && s.IdleGapS < gap+2 {
					rtts = append(rtts, s.RTTMs)
					if s.Radio == rrc.Radio4G {
						c4++
					} else {
						c5++
					}
				}
			}
			if len(rtts) == 0 {
				continue
			}
			minR, medR = minMed(rtts)
			rad := "5G"
			if c4 > c5 {
				rad = "4G"
			}
			if n.Mode == radio.ModeLTE {
				rad = "4G"
			}
			t.AddRow(fmt.Sprintf("%.0f-%.0f", gap, gap+2), f1(minR), f1(medR), rad)
		}
		inf, err := rrcprobe.Infer(samples)
		if err != nil {
			t.Notes = append(t.Notes, "inference failed: "+err.Error())
		} else {
			note := fmt.Sprintf("inferred: tail %.1f s", inf.TailS)
			if inf.LTETailS > 0 {
				note += fmt.Sprintf(", LTE tail to %.1f s", inf.LTETailS)
			}
			if inf.InactiveUntilS > 0 {
				note += fmt.Sprintf(", RRC_INACTIVE until %.1f s", inf.InactiveUntilS)
			}
			note += fmt.Sprintf(", idle promotion ~%.0f ms", inf.PromoMs)
			t.Notes = append(t.Notes, note)
		}
		out = append(out, t)
	}
	return out
}

// minMed returns the smallest value of xs and its upper median, from a
// sorted copy.
func minMed(xs []float64) (min, med float64) {
	c := stats.SortN(append([]float64(nil), xs...))
	return c[0], c[len(c)/2]
}

// Fig10 is the four-network RRC-Probe scatter.
func Fig10(cfg Config) []*Table {
	return probeScatter(cfg, "fig10", "RRC-Probe", fig10Networks)
}

// Fig25 is the six-network appendix version.
func Fig25(cfg Config) []*Table {
	return probeScatter(cfg, "fig25", "RRC-Probe (appendix)", fig25Networks)
}

// Table2 reports power during RRC state transitions: tail power and the
// 4G->5G switch power, measured by driving the state machine through an
// idle -> packet -> tail cycle and sampling its power.
func Table2(cfg Config) []*Table {
	t := &Table{ID: "table2", Title: "Power during RRC state transitions (mW)",
		Header: []string{"Carrier", "Network", "Tail", "4G->5G switch"}}
	for _, n := range []radio.Network{
		radio.VerizonLTE, radio.TMobileLTE,
		radio.VerizonNSALowBand, radio.VerizonNSAmmWave,
		radio.TMobileNSALowBand, radio.TMobileSALowBand,
	} {
		c := rrc.MustConfig(n)
		m := rrc.NewMachine(c)
		// Each network gets a sub-collector folded back with a net tag, so
		// the trace distinguishes the six machines' transitions.
		sub := obs.Sub(cfg.Obs)
		m.Obs = sub
		// Idle for 20 s, then one packet, then observe the tail.
		m.RunUntil(20)
		delay := m.DataActivity()
		// Sample switch power during promotion.
		switchPw := m.RadioPowerMw()
		m.RunUntil(m.Now() + delay + 0.2)
		// Sample tail power midway through the tail.
		m.RunUntil(m.Now() + float64(c.TailMs/1000/2))
		tailPw := m.RadioPowerMw()
		cfg.countEvents(m.Events)
		cfg.Obs.MergeTagged(sub, obs.S("net", n.String()))
		sw := "N/A"
		if c.Is5G() {
			sw = f0(switchPw)
		}
		net := "4G"
		if c.Is5G() {
			net = fmt.Sprintf("%s 5G (%s)", n.Mode, n.Band.Class)
		}
		t.AddRow(string(n.Carrier), net, f0(tailPw), sw)
	}
	t.Notes = append(t.Notes,
		"paper: tails 178/66/249/1092/260/593 mW; switches 799/1494/699/245 mW")
	return []*Table{t}
}

// Table7 infers the RRC parameters for every network with RRC-Probe and
// reports them next to the promotion measurements.
func Table7(cfg Config) []*Table {
	t := &Table{ID: "table7", Title: "RRC parameters inferred by RRC-Probe (ms)",
		Header: []string{"Carrier", "Radio type", "UE-inactivity timer", "(LTE tail)",
			"Long DRX", "IDLE DRX", "4G promo", "5G promo"}}
	for _, n := range radio.AllNetworks {
		c := rrc.MustConfig(n)
		p, samples, _ := probeSweep(cfg, n)
		inf, err := rrcprobe.Infer(samples)
		if err != nil {
			panic(fmt.Sprintf("table7: %s: %v", n, err))
		}
		lteTail := "-"
		if inf.LTETailS > 0 {
			lteTail = f0(inf.LTETailS * 1000)
		}
		promo4 := "N/A"
		if n.Mode != radio.ModeSA {
			promo4 = f0(p.MeasurePromoIdle())
		}
		promo5 := "N/A"
		if ms, ok := p.MeasurePromo5G(); ok && n.Mode != radio.ModeLTE {
			promo5 = f0(ms)
		}
		cfg.countEvents(p.Events)
		rt := "4G"
		if c.Is5G() {
			rt = fmt.Sprintf("%s %s", n.Mode, n.Band.Class)
		}
		t.AddRow(string(n.Carrier), rt, f0(inf.TailS*1000), lteTail,
			f0(c.LongDRXMs), f0(c.IdleDRXMs), promo4, promo5)
	}
	t.Notes = append(t.Notes,
		"configured Table 7 values: tails 10400/10400(12120)/10500/10200(18800)/5000/10200 ms",
		"the 5G tails are ~10 s like 4G — not 2x as reported by Xu et al.")
	return []*Table{t}
}
