package colf

import (
	"bytes"
	"io"
	"testing"

	"fivegsim/internal/obs"
)

// benchU01 is a splitmix64-style hash to [0,1): the corpus needs the
// full-mantissa floats the real subsystems produce (sim timestamps and
// durations print as 17-digit shortest-round-trip decimals in JSONL), and
// a counter hash synthesizes them deterministically.
func benchU01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return float64((x^(x>>31))>>11) / (1 << 53)
}

// benchCorpus mirrors the shape and mix of the battery's real trace
// artifact, which is dominated by abr chunk spans (~94% of records; whose
// download_s field duplicates the span duration, as the real abr
// instrumentation does) with a sprinkling of rrc transition spans,
// transport loss events, and fleet session spans — full-precision values
// where the real columns have them, exact repetition where the real
// columns repeat (config constants, small enum-ish integers).
func benchCorpus() ([]string, []obs.Record) {
	const n = 20000
	scopes := make([]string, 0, n)
	recs := make([]obs.Record, 0, n)
	states := []string{"RRC_IDLE", "RRC_CONNECTED", "TAIL_NR", "RRC_INACTIVE"}
	at := 0.0
	for i := 0; i < n; i++ {
		u := benchU01(uint64(i))
		at += 0.02 + 0.4*u
		switch m := i % 48; {
		case m == 0:
			scopes = append(scopes, "fig8")
			recs = append(recs, obs.Span(at, 0.08+0.3*u, "rrc", "transition").
				With(obs.S("from", states[i%4])).
				With(obs.S("to", states[(i+1)%4])))
		case m == 1:
			scopes = append(scopes, "fig17")
			recs = append(recs, obs.Ev(at, "transport", "loss").
				With(obs.F("cwnd_pkts", float64(40+i%17))).
				With(obs.F("rtt_s", 0.02+0.03*u)))
		case m == 2:
			scopes = append(scopes, "fleet")
			recs = append(recs, obs.Span(at, 28+9*u, "fleet", "session").
				With(obs.F("ue", float64(i))).
				With(obs.F("mbps", 30+80*benchU01(uint64(i)+2<<32))).
				With(obs.F("qoe", 9+5*benchU01(uint64(i)+3<<32))).
				With(obs.F("energy_j", 25+60*benchU01(uint64(i)+4<<32))))
		default:
			dl := 0.5 + 6*u
			// The real player buffer sits at its 20 s cap for ~43% of
			// chunks — an exact-repeat column, not a noise column.
			buf := 4 + 26*benchU01(uint64(i)+1<<32)
			if buf > 20 {
				buf = 20
			}
			scopes = append(scopes, "fig18b")
			recs = append(recs, obs.Span(at, dl, "abr", "chunk").
				With(obs.F("idx", float64(i/4%240))).
				With(obs.F("quality", float64(i/16%6))).
				With(obs.F("buffer_s", buf)).
				With(obs.F("download_s", dl)).
				With(obs.F("trace", float64(i/512%7))).
				With(obs.F("chunk_s", 1)))
		}
	}
	return scopes, recs
}

func jsonlBytes(scopes []string, recs []obs.Record) int {
	var buf []byte
	total := 0
	for i := range recs {
		buf = obs.AppendRecordJSON(buf[:0], scopes[i], &recs[i])
		total += len(buf) + 1
	}
	return total
}

// BenchmarkColfEncode prices the encoder on the battery-shaped corpus and
// reports the artifact economics bench.sh records in BENCH_5.json:
// bytes/event of the binary artifact, encode throughput in MB/s (of
// emitted colf bytes), and how many times smaller colf is than the JSONL
// of the same records.
func BenchmarkColfEncode(b *testing.B) {
	scopes, recs := benchCorpus()
	jb := jsonlBytes(scopes, recs)
	var encoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for j := range recs {
			if err := w.Add(scopes[j], &recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		encoded = int64(buf.Len())
	}
	b.StopTimer()
	perEvent := float64(encoded) / float64(len(recs))
	b.ReportMetric(perEvent, "bytes/event")
	b.ReportMetric(float64(jb)/float64(encoded), "x_vs_jsonl")
	b.ReportMetric(float64(encoded)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkColfDecode prices the reader (decode-to-records) on the same
// corpus, in decoded-records MB/s of colf input.
func BenchmarkColfDecode(b *testing.B) {
	scopes, recs := benchCorpus()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for j := range recs {
		if err := w.Add(scopes[j], &recs[j]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(enc))
		n := 0
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("decoded %d records, want %d", n, len(recs))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(enc))*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkJSONLEncode is the baseline the colf numbers are read against:
// the same corpus through the direct JSONL renderer.
func BenchmarkJSONLEncode(b *testing.B) {
	scopes, recs := benchCorpus()
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf []byte
		n := 0
		for j := range recs {
			buf = obs.AppendRecordJSON(buf[:0], scopes[j], &recs[j])
			n += len(buf) + 1
		}
		total = int64(n)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(len(recs)), "bytes/event")
	b.ReportMetric(float64(total)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
}

// TestColfAtLeast5xSmaller is the artifact-economics acceptance gate: on
// the battery-shaped corpus the binary artifact must be at least 5x
// smaller than the JSONL of the same records.
func TestColfAtLeast5xSmaller(t *testing.T) {
	scopes, recs := benchCorpus()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for j := range recs {
		if err := w.Add(scopes[j], &recs[j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	jb := jsonlBytes(scopes, recs)
	ratio := float64(jb) / float64(buf.Len())
	t.Logf("jsonl %d B (%.1f B/event) vs colf %d B (%.1f B/event): %.2fx",
		jb, float64(jb)/float64(len(recs)), buf.Len(), float64(buf.Len())/float64(len(recs)), ratio)
	if ratio < 5 {
		t.Fatalf("colf only %.2fx smaller than JSONL, want >= 5x", ratio)
	}
}
