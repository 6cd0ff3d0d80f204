// Package obs is the deterministic observability layer of the simulation:
// a sim-time Tracer (structured span/event records) and a Metrics registry
// (counters, gauges, fixed-bucket histograms), both stdlib-only.
//
// Determinism contract. Every record is stamped from the model's own
// simulated clock, never the wall clock, and collectors are merged in a
// caller-defined deterministic order (trace order inside
// abr.EvaluateWorkers, sorted experiment-id order in experiments.RunMany).
// The rendered artifacts are therefore byte-identical across runs and
// across -parallel worker counts — observability obeys the same contract
// it exists to audit, and fgvet's walltime check holds over this package.
//
// Cost contract. A nil *Tracer, *Metrics, or *Obs is a valid "disabled"
// collector: every method is a nil-check no-op, and hot paths additionally
// guard emission with Enabled() so the disabled path performs no field
// marshalling and no allocations (asserted by the ReportAllocs benchmarks
// here and in internal/abr and internal/transport).
package obs

import "slices"

// maxFields bounds the structured fields a Record carries. The array is
// fixed-size so a Record is a plain value: building one allocates nothing,
// and tag fields attached by MergeTagged (trace index, algorithm, …) still
// fit after the four or so fields a subsystem emits.
const maxFields = 8

// FieldKind says how a Field renders. The kind is explicit rather than
// inferred from the value: a legitimately-empty string field ("" carrier
// name, say) must still render as "" and never as the number 0. The zero
// kind is KindNum so numeric fields stay zero-cost to build.
type FieldKind uint8

const (
	// KindNum renders the field's Num value.
	KindNum FieldKind = iota
	// KindStr renders the field's Str value (quoted).
	KindStr
)

// Field is one key/value pair of a Record: a number (KindNum) or a string
// (KindStr), selected by the explicit Kind bit.
type Field struct {
	Key  string
	Kind FieldKind
	Num  float64
	Str  string
}

// F returns a numeric field.
//
//fgvet:noalloc
func F(key string, v float64) Field { return Field{Key: key, Num: v} }

// S returns a string field.
//
//fgvet:noalloc
func S(key, v string) Field { return Field{Key: key, Kind: KindStr, Str: v} }

// Record is one structured trace entry: a point event (Dur == 0) or a span
// (Dur > 0, with At the span's start). Records are plain values; build them
// with Ev or Span and chain With to attach fields.
type Record struct {
	// At is the simulation time (seconds) the event happened or the span
	// began. Never wall time.
	At float64
	// Dur is the span duration in seconds; zero for point events.
	Dur float64
	// Sub is the emitting subsystem ("rrc", "transport", "abr", …).
	Sub string
	// Name is the event name within the subsystem.
	Name string

	n      int
	fields [maxFields]Field
}

// Ev returns a point-event record at sim time `at`.
//
//fgvet:noalloc
func Ev(at float64, sub, name string) Record {
	return Record{At: at, Sub: sub, Name: name}
}

// Span returns a span record covering [at, at+dur).
//
//fgvet:noalloc
func Span(at, dur float64, sub, name string) Record {
	return Record{At: at, Dur: dur, Sub: sub, Name: name}
}

// With returns the record with f appended. Fields beyond the fixed capacity
// are dropped silently; subsystems emit few enough that this only bounds
// pathological tag stacking.
//
//fgvet:noalloc
func (r Record) With(f Field) Record {
	if r.n < maxFields {
		r.fields[r.n] = f
		r.n++
	}
	return r
}

// Fields returns the record's fields in emission order. The slice aliases
// the record's storage; treat it as read-only.
func (r *Record) Fields() []Field { return r.fields[:r.n] }

// Tracer accumulates sim-time records in emission order. A nil *Tracer is
// the disabled tracer: Emit is an allocation-free no-op and Enabled reports
// false, so hot paths can skip even building the Record.
//
// A tracer holds its trace as a tree. Emit appends to the tracer's own
// records; AppendTagged (and so Obs.MergeTagged) takes over a child
// tracer's whole trace by reference and splices it in at the point of the
// merge. No record is copied after it is emitted: merge tags attach when
// the trace is walked (Walk, WriteTraceJSON), so record memory is paid
// once however many fold levels the trace passes through.
type Tracer struct {
	recordSeq
}

// recordSeq is a trace in emission order: a tracer's own records, with the
// traces merged into it spliced in between them.
type recordSeq struct {
	recs   []Record
	merged []mergedSeq
}

// mergedSeq is a trace taken over by a merge. It sits before recs[at] of
// the sequence it was merged into (after every earlier merge at the same
// point), and its tags attach to each of its records after the tags of
// the merges inside it.
type mergedSeq struct {
	at   int
	tags []Field
	seq  recordSeq
}

// NewTracer returns an empty enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether records are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Grow reserves room for n more records of the tracer's own, so a caller
// that knows how many records a tracer will receive pays for one
// allocation instead of a doubling series. No-op on a nil tracer.
func (t *Tracer) Grow(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.recs = slices.Grow(t.recs, n)
}

// Emit appends a record. Emitting to a nil tracer is a no-op.
//
//fgvet:noalloc
func (t *Tracer) Emit(r Record) {
	if t == nil {
		return
	}
	t.recs = append(t.recs, r)
}

// Len returns the number of records the tracer holds, merged ones included
// (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.recordSeq.len()
}

// Walk calls fn on every record the tracer holds, in emission order, with
// merge tags attached: the tags of the innermost merge first, the
// outermost last, up to the record's field capacity. fn gets a scratch
// copy that is valid only for the call; the tracer itself is unchanged,
// so a trace can be walked any number of times. Walk stops at, and
// returns, the first error fn returns. A nil tracer walks nothing.
func (t *Tracer) Walk(fn func(r *Record) error) error {
	if t == nil {
		return nil
	}
	w := walker{fn: fn}
	return w.walk(&t.recordSeq)
}

// AppendTagged merges other into t: other's trace — its own records and
// every trace merged into it — follows t's current records, with tags
// attached after any tags those records already carry. Ownership moves:
// t takes the trace by reference and other is left empty, so later emits
// to other do not reach t. No record is copied; the tags attach when the
// trace is walked.
//
// Determinism is preserved as long as callers merge sub-tracers in a
// deterministic order. A nil receiver or source, and a self-merge, are
// no-ops.
func (t *Tracer) AppendTagged(other *Tracer, tags ...Field) {
	if t == nil || other == nil || t == other {
		return
	}
	t.merged = append(t.merged, mergedSeq{
		at:   len(t.recs),
		tags: slices.Clone(tags),
		seq:  other.recordSeq,
	})
	other.recordSeq = recordSeq{}
}

// len counts the records of s and of every trace merged into it.
func (s *recordSeq) len() int {
	n := len(s.recs)
	for i := range s.merged {
		n += s.merged[i].seq.len()
	}
	return n
}

// walker visits a trace in emission order (see Tracer.Walk).
type walker struct {
	fn func(*Record) error
	// tags holds the tags of the merges enclosing the sequence being
	// visited, outermost first; a record takes them innermost first.
	tags [][]Field
	r    Record // scratch: the record handed to fn
}

func (w *walker) walk(s *recordSeq) error {
	own := 0
	for i := range s.merged {
		m := &s.merged[i]
		if err := w.visit(s.recs[own:m.at]); err != nil {
			return err
		}
		own = m.at
		w.tags = append(w.tags, m.tags)
		err := w.walk(&m.seq)
		w.tags = w.tags[:len(w.tags)-1]
		if err != nil {
			return err
		}
	}
	return w.visit(s.recs[own:])
}

// visit hands each of recs to fn, with the enclosing merges' tags attached.
func (w *walker) visit(recs []Record) error {
	for i := range recs {
		w.r = recs[i]
		for l := len(w.tags) - 1; l >= 0; l-- {
			for _, tag := range w.tags[l] {
				w.r = w.r.With(tag)
			}
		}
		if err := w.fn(&w.r); err != nil {
			return err
		}
	}
	return nil
}
