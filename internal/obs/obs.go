package obs

// Obs bundles one Tracer and one Metrics registry — the collector handed to
// a subsystem (an RRC machine, a transport run, an ABR playback) or to one
// experiment. A nil *Obs is the disabled collector; Trace and Meter then
// return nil sub-collectors whose methods are allocation-free no-ops, so
// wiring obs through a hot path costs a nil check when disabled.
type Obs struct {
	tracer  *Tracer
	metrics *Metrics
}

// New returns an enabled collector with an empty tracer and registry.
func New() *Obs {
	return &Obs{tracer: NewTracer(), metrics: NewMetrics()}
}

// Enabled reports whether the collector is live. Hot paths guard emission
// with this so the disabled path skips field marshalling entirely.
func (o *Obs) Enabled() bool { return o != nil }

// Trace returns the tracer (nil when the collector is disabled).
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Meter returns the metrics registry (nil when the collector is disabled).
func (o *Obs) Meter() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Sub returns a fresh collector when parent is enabled and nil otherwise —
// the pattern for fan-out call sites that run sub-work and later fold the
// sub-collector back with MergeTagged in a deterministic order.
func Sub(parent *Obs) *Obs {
	if parent == nil {
		return nil
	}
	return New()
}

// MergeTagged folds other into o: other's trace follows o's records with
// the tags attached (Tracer.AppendTagged: the trace moves by reference and
// other's tracer is left empty), and metrics merge name-wise (counters
// add, gauges overwrite, histogram buckets add; other's registry is left
// as it was). Determinism is the caller's half of the contract: merge
// sub-collectors in a deterministic order (trace index, sorted experiment
// id), never completion order. A nil receiver or source, and a
// self-merge, are no-ops.
func (o *Obs) MergeTagged(other *Obs, tags ...Field) {
	if o == nil || other == nil || o == other {
		return
	}
	o.tracer.AppendTagged(other.tracer, tags...)
	o.metrics.Merge(other.metrics)
}
