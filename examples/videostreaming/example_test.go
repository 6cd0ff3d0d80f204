// Video streaming over mmWave 5G (§5): compare ABR algorithms on synthetic
// Lumos5G-style traces, then show what the 5G-aware interface selection
// scheme buys in stalls and energy.
package videostreaming_test

import (
	"fmt"
	"log"

	"fivegsim/internal/abr"
	"fivegsim/internal/device"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/trace"
)

func Example() {
	// The §5.1 encoding: 6 tracks, 1.5x ladder, top track at the median 5G
	// throughput (160 Mbps), 4-second chunks.
	video, err := abr.NewVideo(300, 4, 160, 6)
	if err != nil {
		log.Fatal(err)
	}
	traces := trace.GenSet5G(40, 400, 1)

	fmt.Println("ABR algorithms on mmWave 5G (40 traces):")
	fmt.Printf("  %-10s %8s %8s %10s\n", "algorithm", "bitrate", "stall%", "QoE")
	for _, a := range []abr.Algorithm{
		&abr.BBA{}, &abr.RB{}, &abr.BOLA{},
		&abr.MPC{Label: "fastMPC"},
		&abr.MPC{Label: "robustMPC", Robust: true},
		&abr.FESTIVE{},
	} {
		g := abr.Evaluate(video, a, traces, abr.Options{})
		fmt.Printf("  %-10s %8.3f %7.2f%% %10.1f\n",
			g.Algorithm, g.NormBitrate, g.StallPct, g.MeanQoE)
	}

	// A learned throughput predictor closes much of the gap to the oracle.
	gbdt, err := abr.TrainGBDTPredictor(trace.GenSet5G(30, 400, 99), 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	g := abr.Evaluate(video, &abr.MPC{Label: "gbdtMPC", Pred: gbdt}, traces, abr.Options{})
	fmt.Printf("  %-10s %8.3f %7.2f%% %10.1f   <- Lumos5G-style predictor\n",
		g.Algorithm, g.NormBitrate, g.StallPct, g.MeanQoE)

	// 5G-aware interface selection (§5.4): detour to 4G through mmWave dips.
	fmt.Println("\n5G-aware interface selection (fastMPC base):")
	for _, scheme := range []abr.Scheme{abr.Always5G, abr.FiveGAware} {
		var stall, energy float64
		const n = 30
		for i := int64(0); i < n; i++ {
			tr5 := trace.Gen5GmmWave(i*7919+1, 400)
			tr4 := trace.Gen4G(i*104729+1, 400)
			r := abr.SimulateIface(video, &abr.MPC{}, tr5, tr4, scheme, abr.BufferHighS)
			stall += r.StallS
			for s, mb := range r.UsageMbps {
				class := radio.ClassMmWave
				if !r.On5G[s] {
					class = radio.ClassLTE
				}
				p, err := power.RadioPowerMw(device.S20U, power.Activity{Class: class, DLMbps: mb * 8})
				if err != nil {
					log.Fatal(err)
				}
				energy += p / 1000
			}
		}
		fmt.Printf("  %-12s stall %6.1f s   radio energy %7.1f J\n",
			scheme, stall/n, energy/n)
	}

	// Output:
	// ABR algorithms on mmWave 5G (40 traces):
	//   algorithm   bitrate   stall%        QoE
	//   BBA           0.788    1.96%     7267.0
	//   RB            0.819    4.36%     6717.8
	//   BOLA          0.829    2.34%     7571.6
	//   fastMPC       0.901    5.97%     7059.2
	//   robustMPC     0.784    2.78%     7183.3
	//   FESTIVE       0.632    3.51%     5427.0
	//   gbdtMPC       0.860    4.13%     7326.2   <- Lumos5G-style predictor
	//
	// 5G-aware interface selection (fastMPC base):
	//   5G-only      stall   20.3 s   radio energy  1600.7 J
	//   5G-aware     stall   17.5 s   radio energy  1558.0 J
}
