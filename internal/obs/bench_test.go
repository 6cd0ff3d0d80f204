package obs

import "testing"

// BenchmarkDisabledEmit is the tracing-disabled-overhead benchmark: the
// exact call shape hot paths use (Enabled guard, hoisted histogram, counter
// add) against nil collectors. The headline number is allocs/op == 0 —
// observability wiring must not cost the simulation anything when off.
func BenchmarkDisabledEmit(b *testing.B) {
	var o *Obs
	h := o.Meter().Hist("transport.cwnd_pkts", []float64{10, 100, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Enabled() {
			o.Trace().Emit(Ev(float64(i), "transport", "loss").
				With(F("flow", 1)).With(F("cwnd", 42)))
			o.Meter().Add("transport.loss_events", 1)
		}
		h.Observe(float64(i))
	}
}

// BenchmarkEnabledEmit prices the enabled path: one traced record with two
// fields plus a counter and a histogram observation per op.
func BenchmarkEnabledEmit(b *testing.B) {
	o := New()
	h := o.Meter().Hist("transport.cwnd_pkts", []float64{10, 100, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Trace().Emit(Ev(float64(i), "transport", "loss").
			With(F("flow", 1)).With(F("cwnd", 42)))
		o.Meter().Add("transport.loss_events", 1)
		h.Observe(float64(i))
	}
}

// BenchmarkMergeTagged prices the trace half of one Obs.MergeTagged: a
// 4,096-record child (one trace's chunk spans) folded into its parent with
// two tags. The merge moves the child's trace by reference, so B/op must
// hold no record bytes however large the child is.
func BenchmarkMergeTagged(b *testing.B) {
	seq := chunkSeq(4096)
	parent := NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := &Tracer{recordSeq: seq}
		parent.AppendTagged(child, F("trace", float64(i)), S("algo", "BBA"))
		if len(parent.merged) == 1024 {
			parent.recordSeq = recordSeq{} // bound the benchmark's own memory
		}
	}
}
