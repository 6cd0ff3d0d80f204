package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// formatFloat renders a float deterministically: shortest representation
// that round-trips ('g', precision -1), the same on every platform, so
// artifacts diff cleanly across runs and worker counts. This is the CSV
// form; JSON values go through appendFloatJSON, which must additionally
// quote the non-finite tokens.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendFloatJSON appends v as a JSON value: the shortest round-trip
// decimal for finite values, and a quoted token for the three non-finite
// ones. Bare +Inf, -Inf, and NaN are not JSON tokens — a line containing
// one fails every JSON parser — so they render as the strings "+Inf",
// "-Inf", and "NaN", which strconv.ParseFloat accepts back verbatim.
func appendFloatJSON(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(buf, `"-Inf"`...)
	case math.IsNaN(v):
		return append(buf, `"NaN"`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// AppendRecordJSON appends one record as a JSON object (no trailing
// newline) to buf and returns the extended slice. It is the single
// rendering point for trace records — WriteTraceJSON and the colf
// decoder's JSONL export both call it, which is what makes "decoded colf"
// and "direct JSONL" byte-identical by construction.
//
// scope, when non-empty, renders as the leading "exp" key (the experiment
// id in a merged battery artifact). Field kinds are explicit: a KindStr
// field renders quoted even when its value is the empty string.
func AppendRecordJSON(buf []byte, scope string, r *Record) []byte {
	buf = append(buf, '{')
	if scope != "" {
		buf = append(buf, `"exp":`...)
		buf = strconv.AppendQuote(buf, scope)
		buf = append(buf, ',')
	}
	buf = append(buf, `"at":`...)
	buf = appendFloatJSON(buf, r.At)
	if r.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = appendFloatJSON(buf, r.Dur)
	}
	buf = append(buf, `,"sub":`...)
	buf = strconv.AppendQuote(buf, r.Sub)
	buf = append(buf, `,"name":`...)
	buf = strconv.AppendQuote(buf, r.Name)
	for _, f := range r.Fields() {
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, f.Key)
		buf = append(buf, ':')
		if f.Kind == KindStr {
			buf = strconv.AppendQuote(buf, f.Str)
		} else {
			buf = appendFloatJSON(buf, f.Num)
		}
	}
	return append(buf, '}')
}

// WriteTraceJSON writes the tracer's records as JSON Lines, one object per
// record, in emission order (Tracer.Walk, merge tags attached):
//
//	{"exp":"fig17","at":12.5,"sub":"abr","name":"chunk","idx":3,...}
//
// Numeric fields render via the shortest round-trip form; a nil tracer
// writes nothing. The output is byte-identical for identical records,
// independent of host or worker count.
func WriteTraceJSON(w io.Writer, scope string, t *Tracer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	err := t.Walk(func(r *Record) error {
		buf = AppendRecordJSON(buf[:0], scope, r)
		buf = append(buf, '\n')
		_, err := bw.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteMetricsCSV writes the registry's snapshot as CSV rows
//
//	exp,kind,name,field,value
//
// without a header (so per-experiment registries concatenate into one
// artifact; callers write the header once via MetricsCSVHeader). Rows come
// out in Snapshot order — counters, gauges, histograms, each sorted by
// name — so the artifact is deterministic. A nil registry writes nothing.
func WriteMetricsCSV(w io.Writer, scope string, m *Metrics) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, p := range m.Snapshot() {
		bw.WriteString(scope)
		bw.WriteByte(',')
		bw.WriteString(p.Kind)
		bw.WriteByte(',')
		bw.WriteString(p.Name)
		bw.WriteByte(',')
		bw.WriteString(p.Field)
		bw.WriteByte(',')
		bw.WriteString(formatFloat(p.Value))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MetricsCSVHeader is the column header matching WriteMetricsCSV rows.
const MetricsCSVHeader = "exp,kind,name,field,value\n"
