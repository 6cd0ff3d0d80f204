// Package web reproduces the paper's web-browsing QoE study (§6): loading
// Alexa-top-1500-class websites over mmWave 5G versus 4G, measuring page
// load time (PLT) and radio energy, and learning interpretable decision
// trees that pick the radio interface per website under different
// energy/performance utility weights (Table 6, Fig. 19-22).
//
// Since the real page corpus is not redistributable, GenCorpus synthesises
// websites whose structural statistics (object counts, page sizes, dynamic
// object ratios — the Table 5 features) match the distributions the paper's
// figures imply. The page-load model fetches objects over parallel
// connections in RTT-gated rounds, so 5G's bandwidth advantage compresses
// the byte-transfer term while the RTT-bound round structure keeps PLT
// finite — exactly the regime where heavier pages widen the 4G-5G gap
// (Fig. 19).
package web

import (
	"math"
	"math/rand"

	"fivegsim/internal/device"
	"fivegsim/internal/power"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

// Website is one page of the corpus with the Table 5 structural factors.
type Website struct {
	Rank           int
	NumObjects     int // NO
	NumImages      int // NI
	NumVideos      int // NV
	DynamicObjects int // for DNO (ratio of dynamic to total objects)
	TotalBytes     float64
	DynamicBytes   float64
}

// DynamicRatio returns DNO: the fraction of objects that are dynamic.
func (w Website) DynamicRatio() float64 {
	if w.NumObjects == 0 {
		return 0
	}
	return float64(w.DynamicObjects) / float64(w.NumObjects)
}

// DynamicSizeRatio returns DSO: dynamic bytes over total bytes.
func (w Website) DynamicSizeRatio() float64 {
	if w.TotalBytes == 0 {
		return 0
	}
	return w.DynamicBytes / w.TotalBytes
}

// AvgObjectBytes returns AOS.
func (w Website) AvgObjectBytes() float64 {
	if w.NumObjects == 0 {
		return 0
	}
	return w.TotalBytes / float64(w.NumObjects)
}

// FeatureNames lists the Table 5 factors in Features() order.
var FeatureNames = []string{"DNO", "DSO", "NO", "AOS", "NI", "NV", "PS"}

// Features returns the Table 5 feature vector for model training.
func (w Website) Features() []float64 {
	return []float64{
		w.DynamicRatio(),
		w.DynamicSizeRatio(),
		float64(w.NumObjects),
		w.AvgObjectBytes(),
		float64(w.NumImages),
		float64(w.NumVideos),
		w.TotalBytes,
	}
}

// GenCorpus synthesises n websites with Alexa-top-list-like structural
// distributions: log-normal object counts and page sizes (correlated),
// beta-ish dynamic ratios, and image/video mixes.
func GenCorpus(n int, seed int64) []Website {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Website, n)
	for i := range out {
		// Object count: log-normal, median ~70, range ~[4, 1200].
		no := int(math.Exp(4.25 + rng.NormFloat64()*0.9))
		if no < 4 {
			no = 4
		}
		if no > 1200 {
			no = 1200
		}
		// Average object size: log-normal around ~30 KB; total page size
		// correlates with object count.
		aos := math.Exp(10.3 + rng.NormFloat64()*0.7) // ~30 KB median
		ps := aos * float64(no)
		if ps > 60e6 {
			ps = 60e6
		}
		dynFrac := rng.Float64() * rng.Float64() // skewed toward small
		if rng.Float64() < 0.15 {
			dynFrac = 0.6 + rng.Float64()*0.4 // ad/script-heavy tail
		}
		dyn := int(dynFrac * float64(no))
		ni := int(float64(no) * (0.25 + rng.Float64()*0.35))
		nv := 0
		if rng.Float64() < 0.25 {
			nv = 1 + rng.Intn(4)
		}
		out[i] = Website{
			Rank:           i + 1,
			NumObjects:     no,
			NumImages:      ni,
			NumVideos:      nv,
			DynamicObjects: dyn,
			TotalBytes:     ps,
			DynamicBytes:   ps * (dynFrac*0.8 + 0.1*rng.Float64()),
		}
	}
	return out
}

// NetProfile describes the network a page is loaded over.
type NetProfile struct {
	Name string
	// EffRTTMs is the effective per-wave round-trip latency: wide-area RTT
	// plus radio scheduling/grant overhead under bursty web traffic. LTE's
	// loaded effective RTT is several times its idle ping.
	EffRTTMs float64
	// BwMbps is the achievable aggregate downlink rate for a page load
	// (bounded by per-connection server rates, not the radio peak).
	BwMbps float64
	// BasePowerW is the web-workload effective radio power floor. The
	// mmWave radio holds continuous reception (beam tracking) throughout a
	// load, so its floor matches the §4.3 connected base; LTE micro-sleeps
	// between bursts (connected-mode DRX), landing well below its iperf
	// base.
	BasePowerW float64
	// SlopeWPerMbps is the marginal transfer power (from the §4 curves).
	SlopeWPerMbps float64
	// Class and UE identify the radio for reporting.
	Class radio.BandClass
	UE    device.Model
}

// The two measured profiles (§6: Verizon mmWave 5G vs 4G on the PX5).
var (
	Profile5G = NetProfile{
		Name:          "5G",
		EffRTTMs:      40,
		BwMbps:        360, // 6 connections x ~60 Mbps server-side
		BasePowerW:    3.2,
		SlopeWPerMbps: power.MustCurve(device.PX5, radio.ClassMmWave, radio.Downlink).SlopeMwPerMbps / 1000,
		Class:         radio.ClassMmWave,
		UE:            device.PX5,
	}
	Profile4G = NetProfile{
		Name:          "4G",
		EffRTTMs:      95,
		BwMbps:        60,
		BasePowerW:    0.40,
		SlopeWPerMbps: power.MustCurve(device.PX5, radio.ClassLTE, radio.Downlink).SlopeMwPerMbps / 1000,
		Class:         radio.ClassLTE,
		UE:            device.PX5,
	}
)

// Load-model constants.
const (
	parallelConns = 6     // browser per-host connection pool
	setupRTTs     = 2.0   // DNS + TCP + TLS before the first byte
	dynThinkS     = 0.120 // server think time per dynamic-object wave
	renderPerObjS = 0.002 // client-side parse/layout per object
	decodeMbps    = 2000  // client decode/processing rate for page bytes
)

// PageLoad is the outcome of loading one website once.
type PageLoad struct {
	Site    Website
	Profile string
	// PLTSeconds is the page load time (onload).
	PLTSeconds float64
	// EnergyJ is the radio energy over the load window (the paper feeds
	// the captured packet trace into the §4 power model).
	EnergyJ float64
	// MeanMbps is the average goodput during the load.
	MeanMbps float64
}

// waves returns the discovery depth of a page: objects are found
// progressively (HTML -> CSS/JS -> images -> beacons), so the critical
// path crosses the network ~log(NO) times beyond a base depth.
func waves(numObjects int) float64 {
	if numObjects < 1 {
		numObjects = 1
	}
	return 3 + math.Log2(float64(numObjects))
}

// Load simulates loading a website over a profile. The rng perturbs
// per-load conditions (server jitter, cache variation); pass a seeded
// source for reproducibility.
func Load(w Website, p NetProfile, rng *rand.Rand) PageLoad {
	rttS := p.EffRTTMs / 1000 * (0.95 + 0.15*rng.Float64())
	bw := p.BwMbps * (0.85 + 0.15*rng.Float64())

	// Root document: connection setup plus the first fetch.
	html := 60e3 * (0.5 + rng.Float64())
	plt := setupRTTs*rttS + transport.TransferTime(html, rttS, bw, 10)

	// Discovery waves gate the critical path; bulk bytes stream at the
	// link rate; dynamic objects add server think time per wave that
	// contains them; rendering and decoding add client-side time.
	wv := waves(w.NumObjects)
	plt += wv * rttS
	plt += (w.TotalBytes - html) * 8 / (bw * 1e6)
	dynWaves := math.Min(wv, math.Ceil(float64(w.DynamicObjects)/parallelConns))
	plt += dynWaves * dynThinkS * (1 + 0.3*rng.Float64())
	plt += renderPerObjS * float64(w.NumObjects)
	plt += w.TotalBytes * 8 / (decodeMbps * 1e6)

	mean := w.TotalBytes * 8 / 1e6 / plt
	pw := p.BasePowerW + p.SlopeWPerMbps*mean
	energy := pw * plt

	return PageLoad{
		Site: w, Profile: p.Name,
		PLTSeconds: plt,
		EnergyJ:    energy,
		MeanMbps:   mean,
	}
}

// Measurement pairs the 4G and 5G loads of one website (averaged over
// repeats, as the paper repeats each load >= 8 times).
type Measurement struct {
	Site                 Website
	PLT5G, PLT4G         float64 // seconds
	Energy5GJ, Energy4GJ float64
	PLTPenaltyPct        float64 // extra PLT of choosing 4G, in % of 5G PLT
	EnergySavingPct      float64 // energy saved by choosing 4G, in % of 5G energy
	repeats              int
}

// MeasureCorpus loads every site over both profiles with the given number
// of repeats and returns per-site averages — the paper's 30,000+ page-load
// dataset in miniature (1500 sites x repeats x 2 radios).
func MeasureCorpus(sites []Website, repeats int, seed int64) []Measurement {
	if repeats < 1 {
		repeats = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Measurement, 0, len(sites))
	for _, w := range sites {
		m := Measurement{Site: w, repeats: repeats}
		for r := 0; r < repeats; r++ {
			l5 := Load(w, Profile5G, rng)
			l4 := Load(w, Profile4G, rng)
			m.PLT5G += l5.PLTSeconds
			m.PLT4G += l4.PLTSeconds
			m.Energy5GJ += l5.EnergyJ
			m.Energy4GJ += l4.EnergyJ
		}
		f := float64(repeats)
		m.PLT5G /= f
		m.PLT4G /= f
		m.Energy5GJ /= f
		m.Energy4GJ /= f
		m.PLTPenaltyPct = (m.PLT4G - m.PLT5G) / m.PLT5G * 100
		m.EnergySavingPct = (m.Energy5GJ - m.Energy4GJ) / m.Energy5GJ * 100
		out = append(out, m)
	}
	return out
}
