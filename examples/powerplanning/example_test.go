// Power planning with the §4 models: given a workload, which radio drains
// the battery least? This example walks the crossover analysis an app
// developer would do before pinning a transfer to 5G or 4G.
package powerplanning_test

import (
	"fmt"
	"log"

	"fivegsim/internal/device"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
)

// A phone battery holds ~4500 mAh at 3.85 V ~ 62 kJ.
const batteryJ = 62000

func Example() {
	ue := device.S20U

	fmt.Println("Which radio for a bulk download? (S20U)")
	fmt.Printf("  %-12s %-10s %12s %14s %16s\n",
		"size", "radio", "rate (Mbps)", "energy (J)", "battery share")
	for _, dl := range []struct {
		label string
		mb    float64 // megabits
	}{
		{"100 MB app", 800},
		{"2 GB video", 16000},
	} {
		for _, r := range []struct {
			label string
			class radio.BandClass
			rate  float64
		}{
			{"4G", radio.ClassLTE, 150},
			{"mmWave 5G", radio.ClassMmWave, 2000},
		} {
			c, err := power.CurveFor(ue, r.class, radio.Downlink)
			if err != nil {
				log.Fatal(err)
			}
			secs := dl.mb / r.rate
			j := c.PowerMw(r.rate) / 1000 * secs
			fmt.Printf("  %-12s %-10s %12.0f %14.1f %15.2f%%\n",
				dl.label, r.label, r.rate, j, j/batteryJ*100)
		}
	}

	// The crossover points: below these rates, 5G is the wrong choice.
	fmt.Println("\nCrossover rates (mmWave becomes more efficient above):")
	for _, dir := range []radio.Direction{radio.Downlink, radio.Uplink} {
		mm := power.MustCurve(ue, radio.ClassMmWave, dir)
		lte := power.MustCurve(ue, radio.ClassLTE, dir)
		lb := power.MustCurve(ue, radio.ClassLowBand, dir)
		if x, ok := power.Crossover(mm, lte); ok {
			fmt.Printf("  %s vs 4G:       %6.1f Mbps\n", dir, x)
		}
		if x, ok := power.Crossover(mm, lb); ok {
			fmt.Printf("  %s vs low-band: %6.1f Mbps\n", dir, x)
		}
	}

	// Poor signal inflates everything (§4.4).
	fmt.Println("\nSignal-strength effect at 500 Mbps downlink (mmWave):")
	for _, rsrp := range []float64{-72, -90, -105} {
		p, err := power.RadioPowerMw(ue, power.Activity{
			Class: radio.ClassMmWave, DLMbps: 500, RSRPDbm: rsrp})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  RSRP %4.0f dBm: %.2f W\n", rsrp, p/1000)
	}
	fmt.Println("\ntakeaway: pin low-rate background traffic to 4G; burst on 5G.")

	// Output:
	// Which radio for a bulk download? (S20U)
	//   size         radio       rate (Mbps)     energy (J)    battery share
	//   100 MB app   4G                  150           15.9            0.03%
	//   100 MB app   mmWave 5G          2000            2.7            0.00%
	//   2 GB video   4G                  150          318.1            0.51%
	//   2 GB video   mmWave 5G          2000           54.4            0.09%
	//
	// Crossover rates (mmWave becomes more efficient above):
	//   DL vs 4G:        187.0 Mbps
	//   DL vs low-band:  189.0 Mbps
	//   UL vs 4G:         39.9 Mbps
	//   UL vs low-band:  122.7 Mbps
	//
	// Signal-strength effect at 500 Mbps downlink (mmWave):
	//   RSRP  -72 dBm: 4.11 W
	//   RSRP  -90 dBm: 4.57 W
	//   RSRP -105 dBm: 5.30 W
	//
	// takeaway: pin low-rate background traffic to 4G; burst on 5G.
}
