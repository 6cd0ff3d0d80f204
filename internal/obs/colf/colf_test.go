package colf

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"fivegsim/internal/obs"
)

// TestZigzagBoundaries pins the zigzag transform at its edges: 0, ±1, and
// the extreme deltas a float64 bit-difference can produce.
func TestZigzagBoundaries(t *testing.T) {
	cases := []struct {
		v int64
		u uint64
	}{
		{0, 0},
		{-1, 1},
		{1, 2},
		{-2, 3},
		{2, 4},
		{math.MaxInt64, math.MaxUint64 - 1},
		{math.MinInt64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := zigzag(c.v); got != c.u {
			t.Errorf("zigzag(%d) = %d, want %d", c.v, got, c.u)
		}
		if got := unzigzag(c.u); got != c.v {
			t.Errorf("unzigzag(%d) = %d, want %d", c.u, got, c.v)
		}
	}
	// Exhaustive inversion over a signed sweep around zero.
	for v := int64(-1000); v <= 1000; v++ {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestXorShiftBoundaries pins the xor-word packing at its edges: the
// smallest and largest packable residuals, sign-bit-only and low-bit-only
// residuals, and the wide residuals that must take the raw escape because
// their significant bits collide with the 6-bit shift count.
func TestXorShiftBoundaries(t *testing.T) {
	fits := []struct {
		u uint64
		w uint64
	}{
		{1, 1<<6 | 0},                        // lowest bit only
		{1 << 63, 1<<6 | 63},                 // sign bit only
		{0b1010 << 8, 0b101<<6 | 9},          // sparse low bits
		{1<<58 - 1, (1<<58 - 1) << 6},        // widest packable, tz=0
		{(1<<58 - 1) << 6, (1<<58-1)<<6 | 6}, // widest packable, tz=6
	}
	for _, c := range fits {
		if !xorShiftFits(c.u) {
			t.Fatalf("xorShiftFits(%#x) = false, want true", c.u)
		}
		if got := xorShift(c.u); got != c.w {
			t.Errorf("xorShift(%#x) = %#x, want %#x", c.u, got, c.w)
		}
		if got := unXorShift(xorShift(c.u)); got != c.u {
			t.Errorf("unXorShift(xorShift(%#x)) = %#x", c.u, got)
		}
	}
	for _, u := range []uint64{1<<59 - 1, ^uint64(0), ^uint64(0) >> 5, 1<<58 | 1} {
		if xorShiftFits(u) {
			t.Errorf("xorShiftFits(%#x) = true, want false (raw escape)", u)
		}
	}
	// Every word an encoder can emit is >= xwMin, so the reference codes
	// below it can never collide with a packed residual.
	for _, u := range []uint64{1, 2, 63, 64, 1 << 57, 1 << 63} {
		if w := xorShift(u); w < xwMin {
			t.Errorf("xorShift(%#x) = %d, below reserved-code ceiling %d", u, w, xwMin)
		}
	}
}

// boundaryFloats are the numeric values whose bit patterns stress the
// delta chains: zero and negative zero (sign-bit-only delta = MinInt64),
// denormals, extremes, and the non-finite values.
var boundaryFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 1.5, -2.25,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Pi, 1e-300, 1e300,
}

// testCorpus builds a deterministic record sequence shaped like the real
// battery trace (repeating span shapes, slowly advancing timestamps,
// enum-ish string fields) salted with every boundary float.
func testCorpus() ([]string, []obs.Record) {
	var scopes []string
	var recs []obs.Record
	subs := []string{"rrc", "transport", "abr", "fleet"}
	names := []string{"transition", "loss", "chunk", "session"}
	at := 0.0
	for i := 0; i < 700; i++ {
		at += 0.25 + float64(i%7)*0.125
		r := obs.Span(at, float64(i%5)*0.5, subs[i%len(subs)], names[i%len(names)]).
			With(obs.F("idx", float64(i))).
			With(obs.F("v", boundaryFloats[i%len(boundaryFloats)])).
			With(obs.S("mix", []string{"low-band", "mmwave", ""}[i%3]))
		if i%4 == 0 {
			r = r.With(obs.F("cwnd", float64(10+i%3)))
		}
		scopes = append(scopes, []string{"fig17", "fleet"}[i%2])
		recs = append(recs, r)
	}
	// A record with no fields, and one with the full field complement.
	scopes = append(scopes, "edge")
	recs = append(recs, obs.Ev(at, "s", "bare"))
	full := obs.Ev(at+1, "s", "full")
	for i := 0; i < 8; i++ {
		full = full.With(obs.F("k", float64(i)))
	}
	scopes = append(scopes, "edge")
	recs = append(recs, full)
	return scopes, recs
}

func encode(t testing.TB, scopes []string, recs []obs.Record, blockRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, blockRecs)
	for i := range recs {
		if err := w.Add(scopes[i], &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, enc []byte) ([]string, []obs.Record) {
	t.Helper()
	r := NewReader(bytes.NewReader(enc))
	var scopes []string
	var recs []obs.Record
	for {
		scope, rec, err := r.Next()
		if err == io.EOF {
			return scopes, recs
		}
		if err != nil {
			t.Fatal(err)
		}
		scopes = append(scopes, scope)
		recs = append(recs, rec)
	}
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestRoundTrip: every record, including non-finite and boundary values,
// comes back bit-exact, across multi-block and single-block encodings.
func TestRoundTrip(t *testing.T) {
	scopes, recs := testCorpus()
	for _, blockRecs := range []int{1, 7, 64, DefaultBlockRecords} {
		enc := encode(t, scopes, recs, blockRecs)
		gotScopes, gotRecs := decode(t, enc)
		if len(gotRecs) != len(recs) {
			t.Fatalf("blockRecs=%d: decoded %d records, want %d", blockRecs, len(gotRecs), len(recs))
		}
		for i := range recs {
			if gotScopes[i] != scopes[i] {
				t.Fatalf("blockRecs=%d rec %d: scope %q, want %q", blockRecs, i, gotScopes[i], scopes[i])
			}
			a, b := &recs[i], &gotRecs[i]
			if !sameFloat(a.At, b.At) || !sameFloat(a.Dur, b.Dur) ||
				a.Sub != b.Sub || a.Name != b.Name {
				t.Fatalf("blockRecs=%d rec %d header mismatch: %+v vs %+v", blockRecs, i, a, b)
			}
			fa, fb := a.Fields(), b.Fields()
			if len(fa) != len(fb) {
				t.Fatalf("blockRecs=%d rec %d: %d fields, want %d", blockRecs, i, len(fb), len(fa))
			}
			for j := range fa {
				if fa[j].Key != fb[j].Key || fa[j].Kind != fb[j].Kind ||
					fa[j].Str != fb[j].Str || !sameFloat(fa[j].Num, fb[j].Num) {
					t.Fatalf("blockRecs=%d rec %d field %d: %+v vs %+v", blockRecs, i, j, fa[j], fb[j])
				}
			}
		}
	}
}

// TestBytesIndependentOfBatching: the encoded bytes are a function of the
// record sequence alone — re-encoding the same sequence yields an identical
// artifact, whatever the layout of the encoder's dictionary map. This is
// the property that extends the shard-count byte-identity contract to colf.
func TestBytesIndependentOfBatching(t *testing.T) {
	scopes, recs := testCorpus()
	direct := encode(t, scopes, recs, 64)
	again := encode(t, scopes, recs, 64)
	if !bytes.Equal(direct, again) {
		t.Fatal("re-encoding the same sequence produced different bytes")
	}
}

// TestDecodeToJSONMatchesDirectJSONL: colf2json output must be
// byte-identical to the JSONL the legacy path writes for the same records.
// The battery writes contiguous per-experiment runs, so group the corpus
// by scope the same way, write each group with WriteTraceJSON, and compare
// against decoding a colf artifact of the same sequence.
func TestDecodeToJSONMatchesDirectJSONL(t *testing.T) {
	scopes, recs := testCorpus()
	var want bytes.Buffer
	var ordScopes []string
	var ordRecs []obs.Record
	for _, scope := range []string{"fig17", "fleet", "edge"} {
		tr := obs.NewTracer()
		for i := range recs {
			if scopes[i] == scope {
				tr.Emit(recs[i])
				ordScopes = append(ordScopes, scope)
				ordRecs = append(ordRecs, recs[i])
			}
		}
		if err := obs.WriteTraceJSON(&want, scope, tr); err != nil {
			t.Fatal(err)
		}
	}
	enc := encode(t, ordScopes, ordRecs, 64)
	var got bytes.Buffer
	if err := DecodeToJSON(bytes.NewReader(enc), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("decoded JSONL differs from direct JSONL:\nfirst lines got:  %s\nfirst lines want: %s",
			firstLines(got.String()), firstLines(want.String()))
	}
}

func firstLines(s string) string {
	lines := strings.SplitN(s, "\n", 4)
	if len(lines) > 3 {
		lines = lines[:3]
	}
	return strings.Join(lines, " | ")
}

// TestEmptyArtifact: zero records still form a valid stream (magic only).
func TestEmptyArtifact(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != magic {
		t.Fatalf("empty artifact = %q, want bare magic", buf.String())
	}
	scopes, recs := decode(t, buf.Bytes())
	if len(scopes) != 0 || len(recs) != 0 {
		t.Fatalf("decoded %d records from an empty artifact", len(recs))
	}
}

// TestCorruptInputFails: truncation and bad magic produce errors, not
// silent partial decodes, and a corrupt frame length is not allocated
// before the payload it claims is read.
func TestCorruptInputFails(t *testing.T) {
	scopes, recs := testCorpus()
	enc := encode(t, scopes, recs, 64)

	r := NewReader(bytes.NewReader(enc[:len(enc)-10]))
	var err error
	for err == nil {
		_, _, err = r.Next()
	}
	if err == io.EOF {
		t.Fatal("truncated stream decoded cleanly")
	}

	bad := append([]byte("NOPE"), enc[4:]...)
	if _, _, err := NewReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Magic plus a frame header declaring the largest allowed block, and
	// nothing after it: 9 bytes of input.
	huge := appendUvarint([]byte(magic), maxBlockBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = NewReader(bytes.NewReader(huge)).Next()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated block") {
		t.Fatalf("%d-byte stream with a %d-byte frame: err = %v, want a truncated-block error",
			len(huge), maxBlockBytes, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes, want under 1 MB", len(huge), d)
	}

	// A block of 2^20 empty dictionary entries fails before the dictionary
	// is built, within TestDecodeAllocBoundedByInput's bound, both with no
	// records, which can reference no entry, and with 2^20/20+1 records,
	// which may use 20 entries each but whose seven empty sections
	// reference none: every entry costs its length prefix and at least one
	// referencing byte.
	const entries = 1 << 20
	for _, recs := range []int{0, entries/maxDictPerRecord + 1} {
		b := dictStream(recs, entries)
		alloc, err := decodeAlloc(b)
		if err == nil || !strings.Contains(err.Error(), "dictionary count") {
			t.Fatalf("block of %d records and %d dictionary entries: err = %v, want a dictionary-count error",
				recs, entries, err)
		}
		if limit := uint64(4*len(b) + 1<<20); alloc > limit {
			t.Fatalf("decoding a %d-byte stream allocated %d bytes, want at most %d", len(b), alloc, limit)
		}
		t.Logf("%d records: decoding %d B allocated %d B", recs, len(b), alloc)
	}
}

// decodeAlloc decodes a colf stream and returns the bytes decoding
// allocated, and its error.
func decodeAlloc(b []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeToJSON(bytes.NewReader(b), io.Discard)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// dictStream is a colf stream of one frame whose block declares recs
// records and entries empty dictionary entries, followed by its seven
// empty sections.
func dictStream(recs, entries int) []byte {
	payload := appendUvarint(appendUvarint(nil, uint64(recs)), uint64(entries))
	payload = append(payload, make([]byte, entries+nSections)...)
	return append(appendUvarint([]byte(magic), uint64(len(payload))), payload...)
}

// TestCorruptRecordFailsInPlace: a bad scope id in a block's third record
// fails the third Next, after the block's first two records, and every
// later Next returns the same error.
func TestCorruptRecordFailsInPlace(t *testing.T) {
	recs := []obs.Record{obs.Ev(0, "s", "e"), obs.Ev(1, "s", "e"), obs.Ev(2, "s", "e")}
	enc := encode(t, []string{"x", "x", "x"}, recs, len(recs))
	// The exp section, one scope id per record, follows the frame length,
	// the record count, the dictionary and the section's own length.
	c := &blockCursor{buf: enc, off: len(magic)}
	c.uvarint()
	c.uvarint()
	nDict, _ := c.uvarint()
	for i := uint64(0); i < nDict; i++ {
		sz, _ := c.uvarint()
		c.bytes(sz)
	}
	if sz, err := c.uvarint(); err != nil || sz != uint64(len(recs)) {
		t.Fatalf("exp section of %d bytes (%v), want %d", sz, err, len(recs))
	}
	enc[c.off+2] = 0x7f // past the end of the dictionary

	r := NewReader(bytes.NewReader(enc))
	for i := 0; i < 2; i++ {
		if _, rec, err := r.Next(); err != nil || rec.At != recs[i].At {
			t.Fatalf("record %d: At %v, err %v; want At %v", i, rec.At, err, recs[i].At)
		}
	}
	_, _, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "dictionary id 127") {
		t.Fatalf("third record: err = %v, want a dictionary-id error", err)
	}
	if _, _, again := r.Next(); again != err {
		t.Fatalf("Next after a failure: err = %v, want %v", again, err)
	}
}

// TestDecodeAllocBoundedByInput: the reader decodes one record per Next,
// so what it allocates follows the bytes it reads, not the record count.
// The stream is one block of 2^20 zero-field records, 6 bytes of input
// each; decoding a whole block before returning its first record cost 440
// B per record, about 400 times the input. A frame just over 2^20 bytes
// costs under twice its length: buffers that double from 4096 bytes
// would take 2^21 bytes before the last one, three times the frame. A
// corrupt frame length that runs out after a quarter of the frame keeps
// within the same bound as the whole block.
func TestDecodeAllocBoundedByInput(t *testing.T) {
	const n = 1 << 20
	enc := zeroFieldStream(t, n)
	var lines countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeToJSON(bytes.NewReader(enc.Bytes()), &lines)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if lines.n != n {
		t.Fatalf("decoded %d records, want %d", lines.n, n)
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*enc.Len()+1<<20)
	t.Logf("decoding %d B of input allocated %d B", enc.Len(), alloc)
	if alloc > limit {
		t.Fatalf("decoding %d B of input allocated %d B, want at most %d", enc.Len(), alloc, limit)
	}

	over := zeroFieldStream(t, (1<<20)/6+2)
	alloc, err = decodeAlloc(over.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(2*over.Len() + 64<<10); over.Len() <= 1<<20 || alloc > limit {
		t.Fatalf("decoding a %d-byte frame allocated %d B, want at most %d", over.Len(), alloc, limit)
	}

	short := append(appendUvarint([]byte(magic), 4<<20-1), make([]byte, 1<<20+1)...)
	alloc, err = decodeAlloc(short)
	if err == nil || !strings.Contains(err.Error(), "truncated block") {
		t.Fatalf("%d-byte stream with a %d-byte frame: err = %v, want a truncated-block error",
			len(short), 4<<20-1, err)
	}
	if limit := uint64(4*len(short) + 1<<20); alloc > limit {
		t.Fatalf("decoding a %d-byte stream that claims a %d-byte frame allocated %d B, want at most %d",
			len(short), 4<<20-1, alloc, limit)
	}
}

// zeroFieldStream encodes n zero-field records in one block.
func zeroFieldStream(t *testing.T, n int) *bytes.Buffer {
	t.Helper()
	var enc bytes.Buffer
	w := NewWriterSize(&enc, n)
	rec := obs.Ev(0, "s", "e")
	for i := 0; i < n; i++ {
		if err := w.Add("x", &rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &enc
}

// countingWriter counts the newlines written to it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}
