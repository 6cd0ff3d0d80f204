// Package dataset materialises the study's datasets as CSV files, mirroring
// the structure of the paper's released artifact
// (github.com/SIGCOMM21-5G/artifact): throughput traces, walking
// power/signal traces, Speedtest campaigns, the web page-load corpus, and
// driving handoff logs. Everything is generated deterministically from a
// seed, so the "dataset" can be reproduced bit-for-bit by anyone.
package dataset

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fivegsim/internal/device"
	"fivegsim/internal/geo"
	"fivegsim/internal/mobility"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/speedtest"
	"fivegsim/internal/trace"
	"fivegsim/internal/web"
)

// Options sizes the generated datasets. The zero value generates the
// paper-scale dataset.
type Options struct {
	// Traces5G/Traces4G are the trace counts; zero means the Lumos5G
	// counts (121 / 175).
	Traces5G int
	Traces4G int
	// TraceLenS is the per-trace duration; zero means 300 s.
	TraceLenS int
	// WalkMinutes is the walking-trace length; zero means 20 (one loop
	// campaign).
	WalkMinutes int
	// Sites is the web corpus size; zero means 1500.
	Sites int
	// SpeedtestRepeats is the runs per server; zero means 10.
	SpeedtestRepeats int
	// Seed drives all generation.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Traces5G == 0 {
		o.Traces5G = trace.NumTraces5G
	}
	if o.Traces4G == 0 {
		o.Traces4G = trace.NumTraces4G
	}
	if o.TraceLenS == 0 {
		o.TraceLenS = 300
	}
	if o.WalkMinutes == 0 {
		o.WalkMinutes = 20
	}
	if o.Sites == 0 {
		o.Sites = 1500
	}
	if o.SpeedtestRepeats == 0 {
		o.SpeedtestRepeats = 10
	}
	return o
}

// writeCSV writes rows (first row = header) to path, creating directories.
func writeCSV(path string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("dataset: flushing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: closing %s: %w", path, err)
	}
	return nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string     { return strconv.Itoa(v) }

// WriteTraces writes the Lumos5G-style throughput trace sets under
// dir/traces/{5g,4g}/NNN.csv (one Mbps value per second).
func WriteTraces(dir string, o Options) error {
	o = o.withDefaults()
	write := func(sub string, set [][]float64) error {
		for i, tr := range set {
			rows := [][]string{{"second", "mbps"}}
			for s, v := range tr {
				rows = append(rows, []string{itoa(s), ftoa(v)})
			}
			path := filepath.Join(dir, "traces", sub, fmt.Sprintf("%03d.csv", i))
			if err := writeCSV(path, rows); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("5g", trace.GenSet5G(o.Traces5G, o.TraceLenS, o.Seed)); err != nil {
		return err
	}
	return write("4g", trace.GenSet4G(o.Traces4G, o.TraceLenS, o.Seed))
}

// WriteWalks writes the walking power-measurement campaigns under
// dir/walking/<setting>.csv with per-second throughput, RSRP, and the
// ground-truth radio power of the §4.4 methodology.
func WriteWalks(dir string, o Options) error {
	o = o.withDefaults()
	durS := o.WalkMinutes * 60
	type setting struct {
		name  string
		model device.Model
		class radio.BandClass
		gen   func(int64, int) []trace.WalkSample
	}
	for _, s := range []setting{
		{"mmwave_s10_annarbor", device.S10, radio.ClassMmWave, trace.WalkMmWave},
		{"mmwave_s20u_minneapolis", device.S20U, radio.ClassMmWave, trace.WalkMmWave},
		{"lowband_s20u_minneapolis", device.S20U, radio.ClassLowBand, trace.WalkLowBand},
	} {
		rows := [][]string{{"second", "dl_mbps", "rsrp_dbm", "radio_power_mw"}}
		for _, w := range s.gen(o.Seed, durS) {
			p, err := power.RadioPowerMw(s.model, power.Activity{
				Class: s.class, DLMbps: w.DLMbps, RSRPDbm: w.RSRPDbm})
			if err != nil {
				return fmt.Errorf("dataset: %w", err)
			}
			rows = append(rows, []string{itoa(w.TSec), ftoa(w.DLMbps), ftoa(w.RSRPDbm), ftoa(p)})
		}
		if err := writeCSV(filepath.Join(dir, "walking", s.name+".csv"), rows); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpeedtests writes a full Verizon-mmWave campaign (carrier pool,
// both connection modes) under dir/speedtest/campaign.csv.
func WriteSpeedtests(dir string, o Options) error {
	o = o.withDefaults()
	spec, err := device.Lookup(device.S20U)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	rows := [][]string{{"server", "city", "distance_km", "mode", "rtt_ms", "dl_p95_mbps", "ul_p95_mbps"}}
	reg := geo.NewCarrierRegistry("Verizon")
	for _, mode := range []speedtest.ConnMode{speedtest.Single, speedtest.Multi} {
		client := speedtest.NewClient(spec, radio.VerizonNSAmmWave, geo.Minneapolis.Loc, o.Seed)
		for _, sum := range client.Campaign(reg.SortedByDistance(geo.Minneapolis.Loc), mode, o.SpeedtestRepeats, speedtest.Both) {
			rows = append(rows, []string{
				sum.Server.Name, sum.Server.City.String(), ftoa(sum.DistanceKm),
				mode.String(), ftoa(sum.RTTMs), ftoa(sum.DLp95Mbps), ftoa(sum.ULp95Mbps)})
		}
	}
	return writeCSV(filepath.Join(dir, "speedtest", "campaign.csv"), rows)
}

// WriteWeb writes the web corpus and its 4G/5G measurements under
// dir/web/{corpus,measurements}.csv.
func WriteWeb(dir string, o Options) error {
	o = o.withDefaults()
	corpus := web.GenCorpus(o.Sites, o.Seed)
	rows := [][]string{{"rank", "num_objects", "num_images", "num_videos",
		"dynamic_objects", "total_bytes", "dynamic_bytes"}}
	for _, w := range corpus {
		rows = append(rows, []string{itoa(w.Rank), itoa(w.NumObjects), itoa(w.NumImages),
			itoa(w.NumVideos), itoa(w.DynamicObjects), ftoa(w.TotalBytes), ftoa(w.DynamicBytes)})
	}
	if err := writeCSV(filepath.Join(dir, "web", "corpus.csv"), rows); err != nil {
		return err
	}
	rows = [][]string{{"rank", "plt_5g_s", "plt_4g_s", "energy_5g_j", "energy_4g_j"}}
	for _, m := range web.MeasureCorpus(corpus, 8, o.Seed+1) {
		rows = append(rows, []string{itoa(m.Site.Rank), ftoa(m.PLT5G), ftoa(m.PLT4G),
			ftoa(m.Energy5GJ), ftoa(m.Energy4GJ)})
	}
	return writeCSV(filepath.Join(dir, "web", "measurements.csv"), rows)
}

// WriteHandoffs writes one drive log per band configuration under
// dir/handoff/<config>.csv (event list) following the Fig. 9 methodology.
func WriteHandoffs(dir string, o Options) error {
	o = o.withDefaults()
	for _, cfg := range mobility.AllConfigs {
		r := mobility.Drive(cfg, o.Seed)
		rows := [][]string{{"t_s", "km", "kind", "from", "to"}}
		for _, e := range r.Events {
			rows = append(rows, []string{ftoa(e.At), ftoa(e.Km), e.Kind.String(),
				e.From.String(), e.To.String()})
		}
		name := fmt.Sprintf("drive_%d.csv", int(cfg))
		if err := writeCSV(filepath.Join(dir, "handoff", name), rows); err != nil {
			return err
		}
	}
	return nil
}

// WriteAll generates the full dataset tree under dir.
func WriteAll(dir string, o Options) error {
	for _, f := range []func(string, Options) error{
		WriteTraces, WriteWalks, WriteSpeedtests, WriteWeb, WriteHandoffs,
	} {
		if err := f(dir, o); err != nil {
			return err
		}
	}
	return nil
}
