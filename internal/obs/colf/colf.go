// Package colf implements the repo's columnar binary trace-artifact format
// ("colf" — column format), the compact alternative to the JSONL trace
// export. It is stdlib-only and deterministic: the encoded bytes are a pure
// function of the record sequence, so every byte-identity contract that
// holds for the JSONL artifacts (identical at any shard or worker count)
// holds for colf artifacts too.
//
// # Layout
//
//	file  := magic("FGC1") block*
//	block := uvarint(len(payload)) payload
//
// Each block is self-contained (its dictionary and every delta chain reset
// at the block boundary), so a reader can skip whole blocks from the frame
// lengths alone. The payload is column-major:
//
//	payload := uvarint(nRecs)
//	           dict                  string-interning dictionary
//	           section*              7 length-prefixed column sections
//	dict    := uvarint(nStrings) { uvarint(len) bytes }*
//	section := uvarint(len) bytes
//
// The seven sections, in order:
//
//	exp    per record: uvarint dictionary id of the record's scope
//	at     per record: xor-word (below) vs the previous record's At bits
//	       (first record chains against bits 0)
//	dur    per record: zigzag-varint of the signed difference of float64
//	       bits vs the previous record's Dur
//	sub    per record: uvarint dictionary id
//	name   per record: uvarint dictionary id
//	shape  per record: uvarint dictionary id of the record's field shape —
//	       the byte string formed by concatenating uvarint((keyID << 1) |
//	       kind) for each field in order, where keyID is the dictionary id
//	       of the field key and kind is 0 numeric, 1 string. Field shapes
//	       live in the same dictionary as ordinary strings; a record with
//	       no fields references the empty shape. Interning the shape makes
//	       the per-field structure cost one byte per RECORD, because trace
//	       records reuse a handful of shapes thousands of times.
//	fval   per field:  string fields: uvarint dictionary id. Numeric
//	       fields: xor-word vs the previous numeric value OF THE SAME KEY
//	       in the block, with two extra reference codes (below)
//
// An xor-word encodes a float64 bit pattern against a predictor prev:
//
//	w == 0      exact repeat: bits = prev
//	w == raw    escape: the next 8 bytes of the same section are the
//	            little-endian bits verbatim (used when the packed form
//	            below would overflow 64 bits)
//	w >= 64     bits = prev XOR ((w>>6) << (w&63)) — the nonzero residual
//	            u = bits^prev packed as ((u>>tz) << 6) | tz with tz =
//	            trailing zeros of u. Residuals between structured floats
//	            are sparse in their low bits, so this stays 1-3 bytes
//	            where a magnitude varint of the same residual costs 8-10.
//
// Remaining small values are per-stream reference codes: in at, raw is 1
// and codes 2..63 are invalid. In numeric fval the predictor is the last
// same-key value, and 1 means "bits = this record's Dur bits" (span-shaped
// instrumentation usually repeats the span duration as a field, e.g.
// download_s), 2 means "bits = this record's At bits", raw is 3, and codes
// 4..63 are invalid.
//
// # Why these encodings
//
// Dictionary ids make the repeated structure (subsystem, event name, field
// keys, enum-like string values) cost one or two bytes per reference
// instead of a quoted token. The xor chains make repetition in the numeric
// streams nearly free: trace columns are dominated by values that repeat
// exactly (timer durations from config constants, the bitrate ladder,
// bucket bounds), duplicate another column of the same record (download_s
// == dur), or drift slowly (sim timestamps, where xor cancels the shared
// sign/exponent/high-mantissa bits). Dur residuals measure as full-entropy
// noise, where a signed-magnitude zigzag delta is slightly smaller than
// the xor packing — so that one column keeps the subtraction chain. All
// values round-trip exactly — the float64 bit pattern, including NaN
// payloads and signed infinities, is reconstructed verbatim.
//
// Interning is first-reference order and the dictionary section is written
// from the ordered slice, never by ranging over the intern map — the same
// maporder rule fgvet enforces everywhere else (the analyzer's fixture
// suite includes this exact shape).
package colf

import (
	"encoding/binary"
	"math/bits"
)

// magic identifies a colf stream, version 1.
const magic = "FGC1"

// DefaultBlockRecords is the records-per-block flush threshold: large
// enough to amortize dictionaries and warm the delta chains, small enough
// that encoder and reader state stay a few hundred KiB.
const DefaultBlockRecords = 4096

// maxBlockBytes bounds a frame a reader will buffer, so a corrupted length
// prefix fails with an error instead of an absurd allocation.
const maxBlockBytes = 1 << 28

// maxDictPerRecord bounds the dictionary entries a block may hold per
// record: a record references at most its scope, Sub, Name and field
// shape, plus a key and a string value for each of obs.Record's at most 8
// fields. So a block with no records has no dictionary.
const maxDictPerRecord = 4 + 2*8

// nSections is the fixed column-section count of format version 1.
const nSections = 7

const (
	secExp = iota
	secAt
	secDur
	secSub
	secName
	secShape
	secFVal
)

// field kinds, carried in the low bit of each shape word.
const (
	fkNum = 0
	fkStr = 1
)

// Reference codes of the xor-word streams. Codes above the raw escape and
// below xorMin are invalid in every stream.
const (
	xwRepeat = 0 // bits = predictor
	xwAtRaw  = 1 // at stream: 8 raw little-endian bytes follow
	xwNumDur = 1 // fval stream: bits = this record's Dur
	xwNumAt  = 2 // fval stream: bits = this record's At
	xwNumRaw = 3 // fval stream: 8 raw little-endian bytes follow
	xwMin    = 64
)

// zigzag maps a signed delta to an unsigned varint-friendly value:
// 0→0, -1→1, 1→2, -2→3, … so small-magnitude deltas of either sign stay
// short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// xorShiftFits reports whether the nonzero residual u packs into one
// xor-word — i.e. its significant bits (after the trailing-zero shift)
// leave room for the 6-bit shift count. When false the encoder emits the
// stream's raw escape instead.
func xorShiftFits(u uint64) bool {
	return u>>bits.TrailingZeros64(u) < 1<<58
}

// xorShift packs a nonzero residual u as ((u>>tz) << 6) | tz. The result
// is always >= xwMin, which is what keeps the small values free for the
// per-stream reference codes. Callers must check xorShiftFits first.
func xorShift(u uint64) uint64 {
	tz := bits.TrailingZeros64(u)
	return u>>tz<<6 | uint64(tz)
}

// unXorShift inverts xorShift.
func unXorShift(w uint64) uint64 { return w >> 6 << (w & 63) }

// appendUvarint appends v in LEB128.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendXorWord appends the xor-word encoding b against the predictor
// prev, falling back to rawCode plus 8 verbatim little-endian bytes when
// the packed residual would overflow one xor-word.
func appendXorWord(buf []byte, b, prev, rawCode uint64) []byte {
	u := b ^ prev
	switch {
	case u == 0:
		return append(buf, xwRepeat)
	case xorShiftFits(u):
		return appendUvarint(buf, xorShift(u))
	default:
		buf = appendUvarint(buf, rawCode)
		return binary.LittleEndian.AppendUint64(buf, b)
	}
}
