package obs

import (
	"fmt"
	"slices"
	"sort"
)

// Histogram is a fixed-bucket histogram: Counts[i] counts observations
// v <= Bounds[i] (cumulative-style "le" buckets are produced at render
// time; storage is per-bucket), and Counts[len(Bounds)] is the overflow
// bucket. Bounds are fixed at registration so merged histograms always
// align. A nil *Histogram is the disabled histogram: Observe is a no-op.
type Histogram struct {
	Name   string
	Bounds []float64 // ascending upper bounds of the finite buckets
	Counts []uint64  // len(Bounds)+1; the last is the +Inf bucket
	Sum    float64
	N      uint64
}

// Observe records one sample. Observing on a nil histogram is a no-op.
//
//fgvet:noalloc
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.Bounds, v) // first bound >= v
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// Metrics is a registry of counters, gauges, and fixed-bucket histograms,
// keyed by dotted subsystem names ("rrc.transitions", "transport.cwnd_pkts").
// A nil *Metrics is the disabled registry: every method is a no-op and
// Hist returns a nil (disabled) histogram.
type Metrics struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
	}
}

// Enabled reports whether the registry is collecting.
func (m *Metrics) Enabled() bool { return m != nil }

// Add increments the named counter by v.
//
//fgvet:noalloc
func (m *Metrics) Add(name string, v float64) {
	if m == nil {
		return
	}
	m.counters[name] += v
}

// Inc increments the named counter by one.
//
//fgvet:noalloc
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Gauge sets the named gauge to v (last write wins).
func (m *Metrics) Gauge(name string, v float64) {
	if m == nil {
		return
	}
	m.gauges[name] = v
}

// Hist returns the named histogram, registering it with the given bounds on
// first use. Later calls ignore bounds (the registered geometry is fixed).
// On a nil registry it returns nil, whose Observe is a no-op — callers can
// hoist the lookup out of their hot loop unconditionally.
func (m *Metrics) Hist(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	if h, ok := m.hists[name]; ok {
		return h
	}
	h := &Histogram{Name: name, Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	m.hists[name] = h
	return h
}

// Merge folds other into m: counters add, gauges overwrite, histogram
// buckets add. Keys are applied in sorted order so float accumulation is
// deterministic regardless of map layout. Merging nil into nil (or
// anything into a nil receiver) is a no-op.
//
// Merged histograms come from one registration site, so their bounds must
// match value for value. Merge panics, naming the histogram and both
// geometries, when they do not: only a code bug registers one name twice
// with different bounds, and adding counts across buckets that mean
// different things would corrupt the artifact without a trace.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	var keys []string
	for k := range other.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.counters[k] += other.counters[k]
	}
	keys = keys[:0]
	for k := range other.gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.gauges[k] = other.gauges[k]
	}
	keys = keys[:0]
	for k := range other.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		src := other.hists[k]
		dst := m.Hist(k, src.Bounds)
		if !slices.Equal(dst.Bounds, src.Bounds) {
			panic(fmt.Sprintf("obs: merging histogram %q with bounds %v into bounds %v",
				k, src.Bounds, dst.Bounds))
		}
		for i, c := range src.Counts {
			dst.Counts[i] += c
		}
		dst.Sum += src.Sum
		dst.N += src.N
	}
}

// Point is one rendered metric sample, the unit of the CSV artifact.
type Point struct {
	Kind  string // "counter", "gauge", or "hist"
	Name  string
	Field string // histogram detail ("le=0.5", "sum", "count"); "" otherwise
	Value float64
}

// Snapshot renders the registry as a deterministic flat list: counters,
// then gauges, then histograms, each sorted by name, histogram buckets in
// bound order. A nil registry snapshots to nil.
func (m *Metrics) Snapshot() []Point {
	if m == nil {
		return nil
	}
	var out []Point
	var keys []string
	for k := range m.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, Point{Kind: "counter", Name: k, Value: m.counters[k]})
	}
	keys = keys[:0]
	for k := range m.gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, Point{Kind: "gauge", Name: k, Value: m.gauges[k]})
	}
	keys = keys[:0]
	for k := range m.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := m.hists[k]
		for i, b := range h.Bounds {
			out = append(out, Point{Kind: "hist", Name: k,
				Field: "le=" + formatFloat(b), Value: float64(h.Counts[i])})
		}
		out = append(out, Point{Kind: "hist", Name: k, Field: "le=+Inf",
			Value: float64(h.Counts[len(h.Bounds)])})
		out = append(out, Point{Kind: "hist", Name: k, Field: "sum", Value: h.Sum})
		out = append(out, Point{Kind: "hist", Name: k, Field: "count", Value: float64(h.N)})
	}
	return out
}
