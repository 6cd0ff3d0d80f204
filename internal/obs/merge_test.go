package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// appendTaggedCopy is the merge as it was before merges took traces by
// reference: every record of other is copied into t with the tags
// attached, through Emit. Tracers built only with Emit and
// appendTaggedCopy never hold merged traces, so other.recs is other's
// whole trace. It is the oracle the by-reference merge must match byte
// for byte.
func appendTaggedCopy(t, other *Tracer, tags ...Field) {
	if t == nil || other == nil {
		return
	}
	for _, r := range other.recs {
		for _, tag := range tags {
			r = r.With(tag)
		}
		t.Emit(r)
	}
}

// mergeScript grows one random trace twice, in lockstep: into got through
// AppendTagged and into want through the copying oracle.
type mergeScript struct {
	rng  *rand.Rand
	next float64 // At of the next record, so record order shows in the bytes
}

// emit appends 0-3 records carrying 0-maxFields fields to both tracers.
func (s *mergeScript) emit(got, want *Tracer) {
	for n := s.rng.Intn(4); n > 0; n-- {
		r := Ev(s.next, "s", "e")
		s.next++
		for f := s.rng.Intn(maxFields + 1); f > 0; f-- {
			r = r.With(F("f", float64(f)))
		}
		got.Emit(r)
		want.Emit(r)
	}
}

// build emits records before, between and after 0-3 merges of random
// sub-traces nested up to depth levels. Each merge carries 0-3 tags, so
// deep records overflow maxFields and drop their outermost tags.
func (s *mergeScript) build(depth int, got, want *Tracer) {
	s.emit(got, want)
	if depth == 0 {
		return
	}
	for m := s.rng.Intn(4); m > 0; m-- {
		gotChild, wantChild := NewTracer(), NewTracer()
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
		appendTaggedCopy(want, wantChild, tags...)
		s.emit(got, want)
	}
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
// by-reference merge renders the same bytes and reports the same Len as
// copying every record at every fold level.
func TestMergeMatchesCopyOracle(t *testing.T) {
	overflowed := false
	for seed := int64(1); seed <= 200; seed++ {
		s := mergeScript{rng: rand.New(rand.NewSource(seed))}
		got, want := NewTracer(), NewTracer()
		s.build(4, got, want)
		if got.Len() != want.Len() {
			t.Fatalf("seed %d: Len = %d, oracle %d", seed, got.Len(), want.Len())
		}
		if g, w := traceJSON(t, got), traceJSON(t, want); g != w {
			t.Fatalf("seed %d: merged trace differs from the copying oracle:\n%s\nvs\n%s", seed, g, w)
		}
		for _, r := range want.recs {
			overflowed = overflowed || strings.HasPrefix(r.fields[maxFields-1].Key, "d")
		}
	}
	if !overflowed {
		t.Fatal("no record filled its last field with a merge tag; the trees are too shallow to test the cap")
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

// mergeAllocBytes returns the bytes one AppendTagged allocates when the
// child holds n records, averaged over several merges. The children share
// one record slice: the merge must not touch it, let alone copy it.
func mergeAllocBytes(n int) float64 {
	const merges = 64
	recs := make([]Record, n)
	parents := make([]*Tracer, merges)
	children := make([]*Tracer, merges)
	for i := range parents {
		parents[i] = NewTracer()
		children[i] = &Tracer{recordSeq: recordSeq{recs: recs}}
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
