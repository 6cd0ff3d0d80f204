package experiments

import (
	"fmt"
	"math/rand"

	"fivegsim/internal/abr"
	"fivegsim/internal/device"
	"fivegsim/internal/netpath"
	"fivegsim/internal/radio"
	"fivegsim/internal/rrc"
	"fivegsim/internal/trace"
	"fivegsim/internal/transport"
)

func init() {
	register("ablation-tail", AblationTail)
	register("ablation-wmem", AblationWmem)
	register("ablation-chunk-buffer", AblationChunkBuffer)
	register("ablation-switch-threshold", AblationSwitchThreshold)
}

// AblationTail quantifies §4.2's longitudinal claim: the carriers measured
// in this paper release the 5G connection after a ~10 s tail, where Xu et
// al. observed a 20 s stacked (5G + 4G) tail — making the
// NR_RRC_CONNECTED -> LTE_RRC_IDLE transition about 2x more energy
// efficient here. We integrate the radio energy of one demotion (last
// packet until RRC_IDLE) under both timer configurations.
func AblationTail(cfg Config) []*Table {
	t := &Table{ID: "ablation-tail", Title: "Tail-timer ablation: this paper's ~10 s vs Xu et al.'s 20 s",
		Header: []string{"Network", "tail (s)", "demotion energy (J)", "vs 10 s tail"}}
	// run integrates the demotion energy: radio power from the last packet
	// until the UE reaches RRC_IDLE (the tail, plus any LTE tail or
	// RRC_INACTIVE dwell).
	run := func(n radio.Network, tailMs float64) float64 {
		c := rrc.MustConfig(n)
		c.TailMs = tailMs
		if c.LTETailMs > 0 && c.LTETailMs < tailMs {
			c.LTETailMs = tailMs + 1700 // keep the bracketed LTE tail beyond the NR tail
		}
		m := rrc.NewMachine(c)
		d := m.DataActivity()
		m.RunUntil(m.Now() + d)
		var joules float64
		const step = 0.05
		for m.CurrentState() != rrc.Idle && m.Now() < 120 {
			joules += float64(m.RadioPowerMw() / 1000 * step)
			m.RunUntil(m.Now() + step)
		}
		cfg.countEvents(m.Events)
		return joules
	}
	for _, n := range []radio.Network{radio.TMobileNSALowBand, radio.VerizonNSAmmWave} {
		base := rrc.MustConfig(n).TailMs
		e10 := run(n, base)
		e20 := run(n, 20000)
		t.AddRow(n.String(), f1(base/1000), f2(e10), "1.00x")
		t.AddRow(n.String()+" (Xu et al. timers)", "20.0", f2(e20), f2(e20/e10)+"x")
	}
	t.Notes = append(t.Notes,
		"paper §4.2: the ~10 s tail makes the demotion ~2x more energy efficient than the 20 s tail of Xu et al.")
	return []*Table{t}
}

// AblationWmem sweeps the TCP send buffer on a representative mmWave path,
// exposing the BDP wall behind the Fig. 8 tuning advice: throughput grows
// with the buffer until the window covers the bandwidth-delay product,
// then saturates at the loss-limited rate.
func AblationWmem(cfg Config) []*Table {
	t := &Table{ID: "ablation-wmem", Title: "tcp_wmem sweep, single connection over mmWave (PX5, 25 ms RTT)",
		Header: []string{"wmem", "throughput (Mbps)", "of link"}}
	ue, err := device.Lookup(device.PX5)
	if err != nil {
		panic(err)
	}
	p := netpath.Path{UE: ue, Network: radio.VerizonNSAmmWave, DistanceKm: 1000}
	params := p.Params(radio.Downlink)
	repeats := cfg.pick(3, 10)
	for _, wmem := range []float64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20} {
		s := 0.0
		for i := 0; i < repeats; i++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*17))
			s += transport.SimulateTCP(params, transport.TCPOptions{
				Flows: 1, WmemBytes: wmem}, rng).MeanMbps
		}
		mean := s / float64(repeats)
		t.AddRow(fmt.Sprintf("%d MiB", int(wmem)/(1<<20)), f0(mean),
			pct(mean/params.CapacityMbps*100))
	}
	t.Notes = append(t.Notes,
		"the sender buffer must cover the BDP (§3.2); beyond that, CUBIC's loss response is the limit")
	return []*Table{t}
}

// AblationChunkBuffer crosses chunk length with the player's buffer cap:
// the §5.3 finding that fine-grained decisions help is robust across
// buffer sizes, but a bigger buffer absorbs more of the damage.
func AblationChunkBuffer(cfg Config) []*Table {
	n := cfg.pick(15, 50)
	tr5 := trace.CachedSet5G(n, 400, cfg.Seed)
	t := &Table{ID: "ablation-chunk-buffer", Title: "Chunk length x player buffer (fastMPC, mmWave 5G)",
		Header: []string{"chunk (s)", "buffer (s)", "bitrate", "stall%"}}
	for _, chunk := range []float64{4, 1} {
		for _, buf := range []float64{10, 20, 40} {
			v, err := abr.NewVideo(300, chunk, 160, 6)
			if err != nil {
				panic(err)
			}
			g := abr.Evaluate(v, &abr.MPC{}, tr5, abr.Options{MaxBufferS: buf})
			t.AddRow(f0(chunk), f0(buf), f2(g.NormBitrate), pct(g.StallPct))
		}
	}
	t.Notes = append(t.Notes,
		"shorter chunks cut stalls at every buffer size; larger buffers help both")
	return []*Table{t}
}

// AblationSwitchThreshold sweeps the 5G-aware scheme's buffer threshold
// (the paper "empirically set [it] to 10 s", §5.4) to show the tradeoff it
// balances: switch back too eagerly and the scheme thrashes through
// blockage; too lazily and it lingers on slow 4G.
func AblationSwitchThreshold(cfg Config) []*Table {
	n := cfg.pick(15, 40)
	t := &Table{ID: "ablation-switch-threshold", Title: "5G-aware scheme: buffer threshold sweep",
		Header: []string{"threshold (s)", "stall (s)", "bitrate", "time on 4G (s)"}}
	v := video5G()
	tr5s := trace.CachedSet5G(n, 400, cfg.Seed+1)
	tr4s := trace.CachedSet4G(n, 400, cfg.Seed+1)
	for _, thresh := range []float64{4, 10, 16} {
		var stall, br, t4 float64
		for i := 0; i < n; i++ {
			r := abr.SimulateIface(v, &abr.MPC{}, tr5s[i], tr4s[i], abr.FiveGAware, thresh)
			stall += r.StallS
			br += r.NormBitrate
			t4 += r.Time4GS
		}
		f := float64(n)
		t.AddRow(f0(thresh), f1(stall/f), f2(br/f), f1(t4/f))
	}
	t.Notes = append(t.Notes, "the paper's 10 s choice sits near the stall-vs-quality knee")
	return []*Table{t}
}
