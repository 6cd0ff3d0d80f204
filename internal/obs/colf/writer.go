package colf

import (
	"bufio"
	"io"
	"math"

	"fivegsim/internal/obs"
)

// Writer encodes scoped trace records into colf blocks. Add encodes each
// record into the current block's column sections as it arrives, and a
// block is written out once it holds the threshold's worth of records, so
// the writer holds no records: its memory is one block's encoded bytes and
// dictionary. The bytes produced depend only on the (scope, record)
// sequence handed to Add — never on batch boundaries, host, or timing —
// which is what lets the shard/worker byte-identity contract extend to
// binary artifacts.
type Writer struct {
	bw        *bufio.Writer
	blockRecs int

	// per-block encoder state, reset by flushBlock
	nRecs           int
	lastAt, lastDur uint64 // the previous record's At and Dur bits
	dict            map[string]uint64
	dictOrder       []string
	lastNum         []uint64 // by field-key dict id: the key's last value bits
	sections        [nSections][]byte
	shapeBuf        []byte // scratch for the current record's field shape

	payload    []byte
	frame      []byte
	wroteMagic bool
	err        error
}

// NewWriter returns a Writer flushing every DefaultBlockRecords records.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, DefaultBlockRecords) }

// NewWriterSize returns a Writer with an explicit records-per-block
// threshold (minimum 1). Different thresholds produce different (equally
// valid) byte streams; determinism contracts compare artifacts encoded at
// the same threshold.
func NewWriterSize(w io.Writer, blockRecs int) *Writer {
	if blockRecs < 1 {
		blockRecs = 1
	}
	return &Writer{
		bw:        bufio.NewWriter(w),
		blockRecs: blockRecs,
		dict:      make(map[string]uint64),
	}
}

// Add encodes one scoped record into the current block, writing the block
// when the threshold is reached. r is only read during the call. Add
// returns the writer's first error; once failed, every later Add returns
// the same error and encodes nothing.
//
//fgvet:noalloc
func (w *Writer) Add(scope string, r *obs.Record) error {
	if w.err != nil {
		return w.err
	}
	w.sections[secExp] = appendUvarint(w.sections[secExp], w.intern(scope))

	atBits := math.Float64bits(r.At)
	w.sections[secAt] = appendXorWord(w.sections[secAt], atBits, w.lastAt, xwAtRaw)
	w.lastAt = atBits

	durBits := math.Float64bits(r.Dur)
	w.sections[secDur] = appendUvarint(w.sections[secDur], zigzag(int64(durBits-w.lastDur)))
	w.lastDur = durBits

	w.sections[secSub] = appendUvarint(w.sections[secSub], w.intern(r.Sub))
	w.sections[secName] = appendUvarint(w.sections[secName], w.intern(r.Name))

	w.shapeBuf = w.shapeBuf[:0]
	fields := r.Fields()
	for i := range fields {
		f := &fields[i]
		key := w.intern(f.Key)
		if f.Kind == obs.KindStr {
			w.shapeBuf = appendUvarint(w.shapeBuf, key<<1|fkStr)
			w.sections[secFVal] = appendUvarint(w.sections[secFVal], w.intern(f.Str))
			continue
		}
		w.shapeBuf = appendUvarint(w.shapeBuf, key<<1|fkNum)
		bits := math.Float64bits(f.Num)
		prev := w.lastNum[key]
		switch {
		case bits == prev:
			w.sections[secFVal] = append(w.sections[secFVal], xwRepeat)
		case bits == durBits:
			w.sections[secFVal] = appendUvarint(w.sections[secFVal], xwNumDur)
		case bits == atBits:
			w.sections[secFVal] = appendUvarint(w.sections[secFVal], xwNumAt)
		default:
			w.sections[secFVal] = appendXorWord(w.sections[secFVal], bits, prev, xwNumRaw)
		}
		w.lastNum[key] = bits
	}
	//fgvet:allow noalloc inlined internBytes miss path copies a new shape key; steady-state blocks reuse interned shapes
	w.sections[secShape] = appendUvarint(w.sections[secShape], w.internBytes(w.shapeBuf))

	w.nRecs++
	if w.nRecs >= w.blockRecs {
		w.flushBlock()
	}
	return w.err
}

// Flush writes any encoded records as a final (possibly short) block and
// drains the underlying buffered writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.nRecs > 0 {
		w.flushBlock()
	}
	if w.err == nil && !w.wroteMagic {
		// An empty artifact is still a valid colf stream: magic, no blocks.
		w.writeMagic()
	}
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Close is Flush; colf streams need no trailer.
func (w *Writer) Close() error { return w.Flush() }

func (w *Writer) writeMagic() {
	if _, err := w.bw.WriteString(magic); err != nil {
		w.err = err
		return
	}
	w.wroteMagic = true
}

// intern returns the block-local dictionary id for s, assigning ids in
// first-reference order. The dictionary section is later written from
// dictOrder — the ordered slice — so the bytes never depend on map layout.
// A new id starts its lastNum chain at bits 0.
//
//fgvet:noalloc
func (w *Writer) intern(s string) uint64 {
	if id, ok := w.dict[s]; ok {
		return id
	}
	id := uint64(len(w.dictOrder))
	w.dict[s] = id
	w.dictOrder = append(w.dictOrder, s)
	w.lastNum = append(w.lastNum, 0)
	return id
}

// internBytes interns a byte-string (a field shape) without allocating on
// the repeat-lookup path — the compiler elides the string conversion in
// the map index expression.
//
//fgvet:noalloc
func (w *Writer) internBytes(b []byte) uint64 {
	if id, ok := w.dict[string(b)]; ok {
		return id
	}
	//fgvet:allow noalloc a dictionary miss must copy the key it retains; the steady path (hit) is allocation-free
	return w.intern(string(b))
}

// flushBlock writes the encoded records as one self-contained block and
// resets all per-block state.
//
//fgvet:noalloc
func (w *Writer) flushBlock() {
	if !w.wroteMagic {
		w.writeMagic()
		if w.err != nil {
			return
		}
	}

	// Assemble the payload: record count, dictionary, then the length-
	// prefixed sections (iterating dictOrder, never the intern map).
	w.payload = appendUvarint(w.payload[:0], uint64(w.nRecs))
	w.payload = appendUvarint(w.payload, uint64(len(w.dictOrder)))
	for _, s := range w.dictOrder {
		w.payload = appendUvarint(w.payload, uint64(len(s)))
		w.payload = append(w.payload, s...)
	}
	for i := range w.sections {
		w.payload = appendUvarint(w.payload, uint64(len(w.sections[i])))
		w.payload = append(w.payload, w.sections[i]...)
	}

	w.frame = appendUvarint(w.frame[:0], uint64(len(w.payload)))
	if _, err := w.bw.Write(w.frame); err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(w.payload); err != nil {
		w.err = err
		return
	}

	w.nRecs = 0
	w.lastAt, w.lastDur = 0, 0
	clear(w.dict)
	w.dictOrder = w.dictOrder[:0]
	w.lastNum = w.lastNum[:0]
	for i := range w.sections {
		w.sections[i] = w.sections[i][:0]
	}
}
