package colf

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"fivegsim/internal/obs"
)

// FuzzDecode: the decoder meets arbitrary bytes whenever a colf artifact is
// read back, so any input must end in nil or an error, never a panic.
func FuzzDecode(f *testing.F) {
	scopes, recs := testCorpus()
	valid := encode(f, scopes[:10], recs[:10], 3)
	f.Add(valid)                                       // four blocks
	f.Add([]byte(magic))                               // empty stream
	f.Add([]byte{})                                    // no magic
	f.Add(valid[:len(valid)/2])                        // truncated frame
	f.Add(appendUvarint([]byte(magic), maxBlockBytes)) // corrupt frame length
	f.Add(dictStream(0, 1<<10))                        // dictionary with no records
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any error is a valid outcome; only a panic fails.
		_ = DecodeToJSON(bytes.NewReader(data), io.Discard)
	})
}

// FuzzRoundTrip: any record sequence, encoded at any block size, decodes
// to exactly the JSON Lines obs.AppendRecordJSON renders for it. The input
// spells out the records (see fuzzRecords), so the fuzzer reaches every
// float bit pattern, quotes and invalid UTF-8 in every string, and 0-9
// fields per record, one past the 8-field cap.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(roundTripSeed(), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, blockSel uint8) {
		scopes, recs := fuzzRecords(data)
		var want []byte
		for i := range recs {
			want = obs.AppendRecordJSON(want, scopes[i], &recs[i])
			want = append(want, '\n')
		}
		enc := encode(t, scopes, recs, 1+int(blockSel%8))
		var got bytes.Buffer
		if err := DecodeToJSON(bytes.NewReader(enc), &got); err != nil {
			t.Fatalf("decoding %d records: %v", len(recs), err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round trip of %d records differs:\ngot  %q\nwant %q", len(recs), got.Bytes(), want)
		}
	})
}

// fuzzRecords parses fuzz bytes into at most 64 scoped records. Each
// record reads: scope, at, dur, sub, name, a field count (mod 10), then per
// field a key, a kind bit and a string or float value. A string is a length
// byte (mod 8) and that many bytes. A float is a selector byte: below
// len(boundaryFloats) it picks that value, otherwise 8 little-endian bytes
// of raw bits follow. Reads past the end yield zeros, so every input
// parses.
func fuzzRecords(data []byte) ([]string, []obs.Record) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		b := make([]byte, next()%8)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	float := func() float64 {
		sel := next()
		if int(sel) < len(boundaryFloats) {
			return boundaryFloats[sel]
		}
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	var scopes []string
	var recs []obs.Record
	for len(data) > 0 && len(recs) < 64 {
		scope := str()
		at, dur := float(), float()
		r := obs.Span(at, dur, str(), str())
		for n := next() % 10; n > 0; n-- {
			key := str()
			if next()&1 == 1 {
				r = r.With(obs.S(key, str()))
			} else {
				r = r.With(obs.F(key, float()))
			}
		}
		scopes = append(scopes, scope)
		recs = append(recs, r)
	}
	return scopes, recs
}

// roundTripSeed spells out 20 records for fuzzRecords: NaN, ±Inf and the
// other boundary floats plus raw bit patterns, strings holding a quote, a
// backslash and invalid UTF-8, and every field count from 0 to 9.
func roundTripSeed() []byte {
	var b []byte
	for i := 0; i < 20; i++ {
		b = append(b, 3, 's', '"', 0xff)         // scope
		b = append(b, byte(i%16), byte(15-i%16)) // at, dur
		b = append(b, 1, 'a', 2, 'n', byte('0'+i%3))
		b = append(b, byte(i%10))
		for k := 0; k < i%10; k++ {
			b = append(b, 1, byte('a'+k), byte(k&1))
			switch {
			case k&1 == 1:
				b = append(b, 2, '\\', 0xfe)
			case k == 4:
				b = append(b, 0xff, 1, 2, 3, 4, 5, 6, 0xf8, 0x7f) // raw bits: a NaN with a payload
			default:
				b = append(b, byte((i+k)%16))
			}
		}
	}
	return b
}
