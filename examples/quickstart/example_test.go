// Quickstart: a tour of the library's public API — attach a UE to a
// network, run a Speedtest campaign, infer the RRC state machine, and ask
// the power model what a transfer costs.
package quickstart_test

import (
	"fmt"
	"log"

	"fivegsim/internal/device"
	"fivegsim/internal/geo"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/rrcprobe"
	"fivegsim/internal/speedtest"
)

func Example() {
	// A Samsung Galaxy S20 Ultra on Verizon's NSA mmWave service. The seed
	// drives every random draw, so each run prints the same numbers.
	ue, err := device.Lookup(device.S20U)
	if err != nil {
		log.Fatal(err)
	}
	network := radio.VerizonNSAmmWave
	const seed = 42
	fmt.Printf("platform: %s on %s\n\n", ue.Model.Short(), network)

	// 1. Speedtest against the carrier's nearest server (the §3 set-up).
	reg := geo.NewCarrierRegistry(string(network.Carrier))
	near, ok := reg.Nearest(geo.Minneapolis.Loc, geo.HostCarrier)
	if !ok {
		log.Fatal("no carrier server found")
	}
	client := speedtest.NewClient(ue, network, geo.Minneapolis.Loc, seed)
	sum := client.Repeat(near, speedtest.Multi, 10, speedtest.Both)
	fmt.Println("speedtest (multi-connection, p95 of 10 runs):")
	fmt.Printf("  %s\n\n", sum)

	// 2. RRC-Probe: infer the radio state machine without root (§4.2).
	probe, err := rrcprobe.New(network, seed)
	if err != nil {
		log.Fatal(err)
	}
	inf, err := rrcprobe.Infer(probe.Run(16, 0.5, 25))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RRC-Probe inference:")
	fmt.Printf("  tail timer: %.1f s, idle promotion ~%.0f ms\n\n", inf.TailS, inf.PromoMs)

	// 3. The power model: what does a 1 Gbps download cost on mmWave?
	pw, err := power.RadioPowerMw(ue.Model, power.Activity{Class: network.Band.Class, DLMbps: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radio power at 1 Gbps downlink: %.2f W\n", pw/1000)
	pwLow, err := power.RadioPowerMw(ue.Model, power.Activity{Class: network.Band.Class, DLMbps: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radio power at 10 Mbps downlink: %.2f W\n", pwLow/1000)
	fmt.Println("\nmmWave burns watts even at low utilisation — the §4 tradeoff.")

	// Output:
	// platform: S20U on Verizon NSA mmWave (n261)
	//
	// speedtest (multi-connection, p95 of 10 runs):
	//   Verizon, Minneapolis                       0 km  rtt   5.8 ms  DL  3447.6  UL  219.9 Mbps (multiple)
	//
	// RRC-Probe inference:
	//   tail timer: 10.5 s, idle promotion ~1026 ms
	//
	// radio power at 1 Gbps downlink: 4.99 W
	// radio power at 10 Mbps downlink: 3.20 W
	//
	// mmWave burns watts even at low utilisation — the §4 tradeoff.
}
