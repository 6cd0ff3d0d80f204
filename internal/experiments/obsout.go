package experiments

import (
	"io"

	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// WriteTrace writes the battery's merged trace artifact: each result's
// records as JSON Lines scoped by experiment id, concatenated in the order
// of results (id order from RunManyCtx). Results without a
// collector contribute nothing. The bytes are identical for every worker
// count because collection is per experiment and results arrive ordered.
func WriteTrace(w io.Writer, results []Result) error {
	for _, r := range results {
		if err := obs.WriteTraceJSON(w, r.ID, r.Obs.Trace()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceColf writes the battery's trace artifact in colf binary form:
// the exact (scope, record) sequence WriteTrace renders as JSON Lines,
// encoded through one colf.Writer so blocks can span experiment boundaries.
// The bytes depend only on that sequence — not on worker count or batch
// timing — and colf.DecodeToJSON recovers WriteTrace's output byte for byte.
func WriteTraceColf(w io.Writer, results []Result) error {
	cw := colf.NewWriter(w)
	for _, r := range results {
		err := r.Obs.Trace().Walk(func(rec *obs.Record) error {
			return cw.Add(r.ID, rec)
		})
		if err != nil {
			return err
		}
	}
	return cw.Close()
}

// WriteMetrics writes the battery's merged metrics artifact: one CSV header
// followed by each result's snapshot rows scoped by experiment id, in result
// order.
func WriteMetrics(w io.Writer, results []Result) error {
	if _, err := io.WriteString(w, obs.MetricsCSVHeader); err != nil {
		return err
	}
	for _, r := range results {
		if err := obs.WriteMetricsCSV(w, r.ID, r.Obs.Meter()); err != nil {
			return err
		}
	}
	return nil
}
