package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestNilCollectorsAreNoOps(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs reports enabled")
	}
	if o.Trace() != nil || o.Meter() != nil {
		t.Fatal("nil Obs returned live sub-collectors")
	}
	o.Trace().Emit(Ev(1, "x", "y"))
	o.Meter().Inc("c")
	o.Meter().Gauge("g", 1)
	o.Meter().Hist("h", []float64{1}).Observe(0.5)
	o.MergeTagged(New(), F("t", 1))
	if o.Trace().Len() != 0 {
		t.Fatal("nil tracer accumulated records")
	}
	if got := o.Meter().Snapshot(); got != nil {
		t.Fatalf("nil metrics snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "e", nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q (err %v)", buf.String(), err)
	}
	if err := WriteMetricsCSV(&buf, "e", nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil metrics wrote %q (err %v)", buf.String(), err)
	}
}

func TestDisabledEmitAllocationFree(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	h := m.Hist("h", []float64{1, 2})
	avg := testing.AllocsPerRun(100, func() {
		if tr.Enabled() {
			tr.Emit(Ev(1, "rrc", "transition").With(S("from", "IDLE")))
		}
		m.Add("c", 1)
		h.Observe(3)
	})
	if avg != 0 {
		t.Fatalf("disabled path allocates %v allocs/op, want 0", avg)
	}
}

func TestRecordFieldsAndCapacity(t *testing.T) {
	r := Ev(2.5, "abr", "chunk")
	for i := 0; i < maxFields+3; i++ {
		r = r.With(F("k", float64(i)))
	}
	if got := len(r.Fields()); got != maxFields {
		t.Fatalf("fields = %d, want capped at %d", got, maxFields)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Hist("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 10, 11, 1e9} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2} // <=1: {0.5,1}; <=10: {5,10}; +Inf: {11,1e9}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.N != 6 {
		t.Fatalf("N = %d, want 6", h.N)
	}
}

func TestMergeTaggedDeterministic(t *testing.T) {
	build := func() *Obs {
		parent := New()
		for i := 0; i < 3; i++ {
			sub := Sub(parent)
			sub.Trace().Emit(Ev(float64(i), "s", "e").With(F("v", float64(i)*0.1)))
			sub.Meter().Add("s.count", 1)
			sub.Meter().Gauge("s.last", float64(i))
			sub.Meter().Hist("s.h", []float64{1}).Observe(float64(i))
			parent.MergeTagged(sub, F("idx", float64(i)))
		}
		return parent
	}
	var a, b bytes.Buffer
	o1, o2 := build(), build()
	if err := WriteTraceJSON(&a, "x", o1.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSON(&b, "x", o2.Trace()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("trace artifacts differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := WriteMetricsCSV(&a, "x", o1.Meter()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsCSV(&b, "x", o2.Meter()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("metrics artifacts differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if got := o1.Meter().Snapshot(); len(got) == 0 {
		t.Fatal("merged metrics snapshot empty")
	}
	// Records carry the merge tag.
	if recs := collect(o1.Trace()); len(recs) != 3 {
		t.Fatalf("merged records = %d, want 3", len(recs))
	} else if f := recs[2].Fields(); f[len(f)-1].Key != "idx" || f[len(f)-1].Num != 2 {
		t.Fatalf("last record missing idx tag: %+v", recs[2])
	}
}

// collect returns the records Walk visits, tags attached, in walk order.
func collect(tr *Tracer) []Record {
	var recs []Record
	tr.Walk(func(r *Record) error {
		recs = append(recs, *r)
		return nil
	})
	return recs
}

func TestWriteTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Span(1.5, 0.25, "abr", "chunk").With(F("idx", 3)).With(S("algo", "BB\"A")))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "fig17", tr); err != nil {
		t.Fatal(err)
	}
	want := `{"exp":"fig17","at":1.5,"dur":0.25,"sub":"abr","name":"chunk","idx":3,"algo":"BB\"A"}` + "\n"
	if buf.String() != want {
		t.Fatalf("trace line = %q, want %q", buf.String(), want)
	}
}

func TestWriteMetricsCSVShape(t *testing.T) {
	m := NewMetrics()
	m.Add("b.count", 2)
	m.Add("a.count", 1)
	m.Gauge("z.g", math.Inf(1))
	m.Hist("h", []float64{0.5}).Observe(0.2)
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, "e1", m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"e1,counter,a.count,,1",
		"e1,counter,b.count,,2",
		"e1,gauge,z.g,,+Inf",
		"e1,hist,h,le=0.5,1",
		"e1,hist,h,le=+Inf,0",
		"e1,hist,h,sum,0.2",
		"e1,hist,h,count,1",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestFieldKinds pins the explicit kind bit: an empty string field renders
// as "" (not the number 0), and a numeric zero renders as 0 (not "").
func TestFieldKinds(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Ev(1, "s", "e").With(S("carrier", "")).With(F("zero", 0)))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "", tr); err != nil {
		t.Fatal(err)
	}
	want := `{"at":1,"sub":"s","name":"e","carrier":"","zero":0}` + "\n"
	if buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
	if F("k", 1).Kind != KindNum || S("k", "v").Kind != KindStr {
		t.Fatal("F/S constructors set the wrong kind")
	}
}

// TestNonFiniteJSONRoundTrip asserts every trace line stays valid JSON when
// records carry non-finite values, and that the quoted tokens round-trip
// through strconv.ParseFloat to the original values.
func TestNonFiniteJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Ev(0.5, "s", "e").
		With(F("pinf", math.Inf(1))).
		With(F("ninf", math.Inf(-1))).
		With(F("nan", math.NaN())).
		With(F("fin", 1.25)))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "x", tr); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	if !json.Valid([]byte(line)) {
		t.Fatalf("trace line is not valid JSON: %q", line)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	parse := func(key string) float64 {
		t.Helper()
		s, ok := obj[key].(string)
		if !ok {
			t.Fatalf("%s decoded as %T, want quoted string", key, obj[key])
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("ParseFloat(%q): %v", s, err)
		}
		return v
	}
	if v := parse("pinf"); !math.IsInf(v, 1) {
		t.Fatalf("pinf round-tripped to %v", v)
	}
	if v := parse("ninf"); !math.IsInf(v, -1) {
		t.Fatalf("ninf round-tripped to %v", v)
	}
	if v := parse("nan"); !math.IsNaN(v) {
		t.Fatalf("nan round-tripped to %v", v)
	}
	if v, ok := obj["fin"].(float64); !ok || v != 1.25 {
		t.Fatalf("finite value decoded as %v (%T), want 1.25", obj["fin"], obj["fin"])
	}
}

func TestMetricsMergeOrderIndependentInputs(t *testing.T) {
	// Two merges applying the same sub-registries in the same order must
	// produce identical snapshots even though map layout differs per run.
	mk := func() *Metrics {
		m := NewMetrics()
		for i, name := range []string{"x", "y", "z"} {
			m.Add("c."+name, float64(i)+0.1)
		}
		return m
	}
	a, b := NewMetrics(), NewMetrics()
	a.Merge(mk())
	a.Merge(mk())
	b.Merge(mk())
	b.Merge(mk())
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("snapshot[%d]: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestMetricsMergeChecksHistogramGeometry: histograms merge only when their
// bounds match value for value. A different bucket count or different
// bound values panic, naming the histogram and both geometries, instead of
// dropping counts or adding them across buckets that mean different things.
func TestMetricsMergeChecksHistogramGeometry(t *testing.T) {
	merge := func(dstBounds, srcBounds []float64) (m *Metrics, panicked any) {
		m, src := NewMetrics(), NewMetrics()
		m.Hist("lat", dstBounds).Observe(5)
		src.Hist("lat", srcBounds).Observe(5)
		defer func() { panicked = recover() }()
		m.Merge(src)
		return m, nil
	}
	m, p := merge([]float64{1, 10}, []float64{1, 10})
	if p != nil {
		t.Fatalf("equal bounds in distinct slices panicked: %v", p)
	}
	if h := m.Hist("lat", nil); h.N != 2 || h.Counts[1] != 2 {
		t.Fatalf("equal geometries did not add: counts %v, n %d", h.Counts, h.N)
	}
	for name, src := range map[string][]float64{
		"bucket count": {1, 10, 100},
		"bound values": {1, 20},
	} {
		_, p := merge([]float64{1, 10}, src)
		msg, _ := p.(string)
		for _, want := range []string{`"lat"`, "[1 10]", fmt.Sprint(src)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s mismatch: panic %v does not name %s", name, p, want)
			}
		}
	}
}
