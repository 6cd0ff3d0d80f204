package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// copyTracer is the oracle the by-reference merge and the compact store
// must match byte for byte: a flat []Record, into which a merge copies
// every record of the child with the tags attached.
type copyTracer struct{ recs []Record }

// appendTagged copies every record of other into c, tags attached.
func (c *copyTracer) appendTagged(other *copyTracer, tags ...Field) {
	for _, r := range other.recs {
		for _, tag := range tags {
			r = r.With(tag)
		}
		c.recs = append(c.recs, r)
	}
}

// mergeScript grows one random trace twice, in lockstep: into got through
// Emit and AppendTagged, and into want through the copying oracle.
type mergeScript struct {
	rng  *rand.Rand
	next float64 // At of the next record, so record order shows in the bytes
}

// Field values the script draws from: the empty string and a quote among
// the strings; signed zeros, infinities and NaNs (one with a payload)
// among the numbers.
var (
	scriptStrs = []string{"", "a", `b"c`}
	scriptNums = []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001)}
)

// emit appends 0-3 records, point events and spans, carrying 0-maxFields
// fields of mixed kinds to both tracers. Sub takes one of two values and
// each field slot's key one of two spellings, so two records can agree in
// name, field count and kind mask and still differ in Sub or in a key.
func (s *mergeScript) emit(got *Tracer, want *copyTracer) {
	for n := s.rng.Intn(4); n > 0; n-- {
		sub := []string{"s", "t"}[s.rng.Intn(2)]
		r := Ev(s.next, sub, "e")
		if s.rng.Intn(2) == 0 {
			r = Span(s.next, float64(1+s.rng.Intn(4))/4, sub, "span")
		}
		s.next++
		for f := s.rng.Intn(maxFields + 1); f > 0; f-- {
			key := fmt.Sprintf("%c%d", "fg"[s.rng.Intn(2)], f)
			if s.rng.Intn(2) == 0 {
				r = r.With(S(key, scriptStrs[s.rng.Intn(len(scriptStrs))]))
			} else {
				r = r.With(F(key, scriptNums[s.rng.Intn(len(scriptNums))]))
			}
		}
		got.Emit(r)
		want.recs = append(want.recs, r)
	}
}

// build emits records before, between and after 0-3 merges of random
// sub-traces nested up to depth levels. Each merge carries 0-3 tags, so
// deep records overflow maxFields and drop their outermost tags.
func (s *mergeScript) build(depth int, got *Tracer, want *copyTracer) {
	s.emit(got, want)
	if depth == 0 {
		return
	}
	for m := s.rng.Intn(4); m > 0; m-- {
		gotChild, wantChild := NewTracer(), &copyTracer{}
		s.build(depth-1, gotChild, wantChild)
		tags := make([]Field, s.rng.Intn(4))
		for i := range tags {
			key := fmt.Sprintf("d%d_%d", depth, i)
			if s.rng.Intn(2) == 0 {
				tags[i] = F(key, float64(s.rng.Intn(100)))
			} else {
				tags[i] = S(key, fmt.Sprint(s.rng.Intn(100)))
			}
		}
		got.AppendTagged(gotChild, tags...)
		want.appendTagged(wantChild, tags...)
		s.emit(got, want)
	}
}

// sameRecord reports whether a and b render alike and carry the same
// float bits: header, then each field's key, kind and the value its kind
// renders.
func sameRecord(a, b *Record) bool {
	if math.Float64bits(a.At) != math.Float64bits(b.At) ||
		math.Float64bits(a.Dur) != math.Float64bits(b.Dur) ||
		a.Sub != b.Sub || a.Name != b.Name || a.n != b.n {
		return false
	}
	for i, fa := range a.Fields() {
		fb := b.fields[i]
		if fa.Key != fb.Key || fa.Kind != fb.Kind {
			return false
		}
		if fa.Kind == KindStr && fa.Str != fb.Str ||
			fa.Kind != KindStr && math.Float64bits(fa.Num) != math.Float64bits(fb.Num) {
			return false
		}
	}
	return true
}

func traceJSON(t *testing.T, tr *Tracer) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTraceJSON(&b, "x", tr); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMergeMatchesCopyOracle: on random merge trees up to depth 4, the
// by-reference merge over the compact store renders the same bytes,
// walks records with the same float bits, and reports the same Len as
// copying every Record at every fold level.
func TestMergeMatchesCopyOracle(t *testing.T) {
	overflowed, spans, kinds := false, false, [2]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		s := mergeScript{rng: rand.New(rand.NewSource(seed))}
		got, want := NewTracer(), &copyTracer{}
		s.build(4, got, want)
		if got.Len() != len(want.recs) {
			t.Fatalf("seed %d: Len = %d, oracle %d", seed, got.Len(), len(want.recs))
		}
		var wantJSON []byte
		for i := range want.recs {
			wantJSON = AppendRecordJSON(wantJSON, "x", &want.recs[i])
			wantJSON = append(wantJSON, '\n')
		}
		if g := traceJSON(t, got); g != string(wantJSON) {
			t.Fatalf("seed %d: merged trace differs from the copying oracle:\n%s\nvs\n%s", seed, g, wantJSON)
		}
		i := 0
		got.Walk(func(r *Record) error {
			if !sameRecord(r, &want.recs[i]) {
				t.Fatalf("seed %d record %d: walked %+v, oracle %+v", seed, i, *r, want.recs[i])
			}
			i++
			return nil
		})
		for _, r := range want.recs {
			overflowed = overflowed || strings.HasPrefix(r.fields[maxFields-1].Key, "d")
			spans = spans || r.Dur != 0
			for _, f := range r.Fields() {
				kinds[f.Kind] = true
			}
		}
	}
	if !overflowed {
		t.Fatal("no record filled its last field with a merge tag; the trees are too shallow to test the cap")
	}
	if !spans || !kinds[KindNum] || !kinds[KindStr] {
		t.Fatalf("the trees lack spans (%t), numeric fields (%t) or string fields (%t)",
			spans, kinds[KindNum], kinds[KindStr])
	}
}

// TestMergeMovesOwnership: a merge empties the child, and what the child
// receives afterwards never reaches the parent.
func TestMergeMovesOwnership(t *testing.T) {
	parent, child := NewTracer(), NewTracer()
	child.Emit(Ev(1, "s", "before"))
	parent.AppendTagged(child, F("k", 1))
	if n := child.Len(); n != 0 {
		t.Fatalf("child holds %d records after its merge, want 0", n)
	}
	want := traceJSON(t, parent)
	child.Emit(Ev(2, "s", "after"))
	if got := traceJSON(t, parent); got != want {
		t.Fatalf("emitting to a merged child changed the parent:\n%s\nwant\n%s", got, want)
	}
}

// TestSelfMergeIsNoOp: merging a tracer, or a collector, into itself
// changes nothing.
func TestSelfMergeIsNoOp(t *testing.T) {
	o := New()
	o.Trace().Emit(Ev(1, "s", "e").With(F("v", 1)))
	o.Meter().Add("c", 1)
	o.Meter().Hist("h", []float64{1}).Observe(0.5)
	trace := traceJSON(t, o.Trace())
	var metrics bytes.Buffer
	if err := WriteMetricsCSV(&metrics, "x", o.Meter()); err != nil {
		t.Fatal(err)
	}

	o.Trace().AppendTagged(o.Trace(), F("k", 1))
	o.MergeTagged(o, F("k", 2))

	if got := traceJSON(t, o.Trace()); got != trace || o.Trace().Len() != 1 {
		t.Fatalf("self-merge changed the trace: %q, want %q", got, trace)
	}
	var got bytes.Buffer
	if err := WriteMetricsCSV(&got, "x", o.Meter()); err != nil {
		t.Fatal(err)
	}
	if got.String() != metrics.String() {
		t.Fatalf("self-merge changed the metrics:\n%s\nwant\n%s", got.String(), metrics.String())
	}
}

// chunkSeq returns the trace of a tracer that received n chunk spans of
// four numeric fields each, the battery's most common record.
func chunkSeq(n int) recordSeq {
	tr := NewTracer()
	tr.Grow(n, 4)
	for i := 0; i < n; i++ {
		tr.Emit(Span(float64(i), 1, "abr", "chunk").
			With(F("idx", float64(i))).With(F("quality", 2)).
			With(F("buffer_s", 3)).With(F("download_s", 1)))
	}
	return tr.recordSeq
}

// mergeAllocBytes returns the bytes one AppendTagged allocates when the
// child holds n records, averaged over several merges. The children share
// one built sequence: the merge must not touch it, let alone copy it.
func mergeAllocBytes(n int) float64 {
	const merges = 64
	seq := chunkSeq(n)
	parents := make([]*Tracer, merges)
	children := make([]*Tracer, merges)
	for i := range parents {
		parents[i] = NewTracer()
		children[i] = &Tracer{recordSeq: seq}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range parents {
		parents[i].AppendTagged(children[i], F("trace", float64(i)), S("algo", "BBA"))
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / merges
}

// TestMergeCostIndependentOfChildSize: merging moves the child's trace, so
// a 10,000-record child costs what a 10-record child does, within 1 KB.
func TestMergeCostIndependentOfChildSize(t *testing.T) {
	small, large := mergeAllocBytes(10), mergeAllocBytes(10_000)
	if d := large - small; d > 1024 || d < -1024 {
		t.Fatalf("merging 10 records allocates %.0f B, 10,000 records %.0f B; want within 1 KB", small, large)
	}
}

// TestTracerFootprint: a fig17 leaf tracer, 75 chunk spans of four numeric
// fields reserved with Grow, retains at most 80 B per record, its shape
// table included (a Record alone is 440 B), and Emit allocates nothing once
// the record's shape is in the table.
func TestTracerFootprint(t *testing.T) {
	const chunks = 75
	tr := NewTracer()
	tr.Grow(chunks, 4)
	i := 0
	allocs := testing.AllocsPerRun(chunks-1, func() { // plus one warm-up call, which adds the shape
		tr.Emit(Span(float64(i), 1, "abr", "chunk").
			With(F("idx", float64(i))).With(F("quality", 2)).
			With(F("buffer_s", 3)).With(F("download_s", 1)))
		i++
	})
	if tr.Len() != chunks {
		t.Fatalf("Len = %d after %d emits", tr.Len(), chunks)
	}
	if allocs != 0 {
		t.Errorf("Emit after Grow: %v allocs/op, want 0", allocs)
	}
	retained := cap(tr.heads)*int(unsafe.Sizeof(recHead{})) +
		cap(tr.nums)*int(unsafe.Sizeof(float64(0))) +
		cap(tr.strs)*int(unsafe.Sizeof("")) +
		cap(tr.shapes)*int(unsafe.Sizeof(recShape{}))
	perRecord := float64(retained) / chunks
	t.Logf("%d headers, %d numeric and %d string value slots, %d shapes: %.1f B per record",
		cap(tr.heads), cap(tr.nums), cap(tr.strs), cap(tr.shapes), perRecord)
	if perRecord > 80 {
		t.Errorf("retained %.1f B per record, want at most 80", perRecord)
	}
}
