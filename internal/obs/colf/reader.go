package colf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"fivegsim/internal/obs"
)

// Reader decodes a colf stream one record per Next. It buffers one block's
// frame at a time, with the block's dictionary, and decodes a record only
// when Next asks for it, so memory is O(frame) however large the artifact
// and however many records a block holds. The strings of a returned
// record are substrings of its block's dictionary.
//
// A corrupt frame, dictionary or section table fails the Next call that
// reads it, before any record of its block. A corrupt record fails the
// Next call that reaches it, after the records before it in the same block
// were returned; so does a block whose sections hold bytes past its last
// record. Once Next has failed it returns the same error on every later
// call.
type Reader struct {
	br *bufio.Reader

	payload []byte

	// The block's dictionary: its entries' bytes as one string, and each
	// entry's end offset in it. A lookup is a substring, so a block
	// allocates its strings once and 4 B per entry.
	dict     string
	dictEnds []uint32

	secs    [nSections]blockCursor
	left    uint64 // records of the current block not yet decoded
	lastAt  uint64
	lastDur uint64
	lastNum map[uint64]uint64
	shapes  map[uint64][]uint64 // shape dict id -> parsed field words
	err     error

	readMagic bool
}

// NewReader returns a Reader over a colf stream.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		br:      bufio.NewReader(r),
		lastNum: make(map[uint64]uint64),
		shapes:  make(map[uint64][]uint64),
	}
}

// Next returns the next record and its scope, in encoding order. It
// returns io.EOF at the clean end of the stream and a descriptive error on
// a corrupt one.
func (r *Reader) Next() (string, obs.Record, error) {
	for r.err == nil && r.left == 0 {
		r.err = r.readBlock()
	}
	if r.err != nil {
		return "", obs.Record{}, r.err
	}
	r.left--
	var rec obs.Record
	scope, err := r.decodeRecord(&rec)
	if err == nil && r.left == 0 {
		err = r.drained()
	}
	if err != nil {
		r.err = err
		return "", obs.Record{}, err
	}
	return scope, rec, nil
}

// readBlock reads the next frame and decodes its header: the record
// count, the dictionary and the section table.
func (r *Reader) readBlock() error {
	if !r.readMagic {
		var m [len(magic)]byte
		if _, err := io.ReadFull(r.br, m[:]); err != nil {
			if err == io.EOF {
				return fmt.Errorf("colf: empty input (missing %q magic)", magic)
			}
			return fmt.Errorf("colf: reading magic: %w", err)
		}
		if string(m[:]) != magic {
			return fmt.Errorf("colf: bad magic %q (not a colf stream?)", m)
		}
		r.readMagic = true
	}

	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean end: no more blocks
		}
		return fmt.Errorf("colf: reading block frame: %w", err)
	}
	if n > maxBlockBytes {
		return fmt.Errorf("colf: block length %d exceeds limit %d (corrupt frame?)", n, maxBlockBytes)
	}
	// Grow the payload buffer with the bytes actually read, never up front
	// from the frame length: a corrupt length must not cost an allocation
	// of its own size before the stream runs out. The reads fill buffers
	// of n>>k, n>>(k-1), ..., n bytes, from the largest k that keeps the
	// first at 4096 bytes or more (a shorter frame is one read). Each
	// buffer is about twice the bytes read before it, and together they
	// end at n, so a frame costs under 2n in buffers, and a corrupt length
	// under 4× the bytes read before the stream ends, plus 8 KB.
	p := r.payload[:0]
	k := 0
	for int(n)>>(k+1) >= 4096 {
		k++
	}
	for ; len(p) < int(n); k-- {
		want := int(n) >> k
		if cap(p) < want {
			p = append(make([]byte, 0, want), p...)
		}
		got, err := io.ReadFull(r.br, p[len(p):want])
		p = p[:len(p)+got]
		if err != nil {
			if err == io.EOF && len(p) > 0 {
				err = io.ErrUnexpectedEOF // what io.ReadFull reports for a short read
			}
			return fmt.Errorf("colf: truncated block (want %d bytes): %w", n, err)
		}
	}
	r.payload = p
	return r.startBlock(p)
}

// blockCursor walks one length-delimited byte region with checked reads.
type blockCursor struct {
	buf []byte
	off int
}

func (c *blockCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colf: bad varint at payload offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *blockCursor) bytes(n uint64) ([]byte, error) {
	if uint64(len(c.buf)-c.off) < n {
		return nil, fmt.Errorf("colf: truncated region: want %d bytes, have %d", n, len(c.buf)-c.off)
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// raw8 reads the 8 little-endian bytes of an xor-word raw escape.
func (c *blockCursor) raw8() (uint64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, fmt.Errorf("colf: truncated raw float escape: %w", err)
	}
	return binary.LittleEndian.Uint64(b), nil
}

// startBlock decodes a block's header and leaves the reader positioned at
// its first record. Delta chains and the dictionary are block-local,
// mirroring the encoder exactly.
func (r *Reader) startBlock(payload []byte) error {
	c := &blockCursor{buf: payload}
	nRecs, err := c.uvarint()
	if err != nil {
		return err
	}
	if nRecs > maxBlockBytes {
		return fmt.Errorf("colf: implausible record count %d", nRecs)
	}
	nDict, err := c.uvarint()
	if err != nil {
		return err
	}
	// Every entry costs its length prefix plus at least one byte that
	// references it, in a section or in a shape entry, so a dictionary the
	// rest of the payload cannot reference fails before it is built.
	if rest := uint64(len(payload) - c.off); nDict > rest/2 {
		return fmt.Errorf("colf: dictionary count %d exceeds what %d payload bytes can reference", nDict, rest)
	}
	if nDict > maxDictPerRecord*nRecs {
		return fmt.Errorf("colf: dictionary count %d exceeds %d entries per record (%d records)",
			nDict, maxDictPerRecord, nRecs)
	}
	if uint64(cap(r.dictEnds)) < nDict {
		r.dictEnds = make([]uint32, 0, nDict)
	}
	r.dictEnds = r.dictEnds[:0]
	// Each entry's bytes move left over the length prefixes before them,
	// which no later read needs, so the dictionary ends up contiguous.
	start, end := c.off, c.off
	for i := uint64(0); i < nDict; i++ {
		sz, err := c.uvarint()
		if err != nil {
			return err
		}
		b, err := c.bytes(sz)
		if err != nil {
			return err
		}
		end += copy(payload[end:], b)
		r.dictEnds = append(r.dictEnds, uint32(end-start))
	}
	r.dict = string(payload[start:end])
	for i := range r.secs {
		sz, err := c.uvarint()
		if err != nil {
			return err
		}
		b, err := c.bytes(sz)
		if err != nil {
			return fmt.Errorf("colf: section %d: %w", i, err)
		}
		r.secs[i] = blockCursor{buf: b}
	}
	if c.off != len(payload) {
		return fmt.Errorf("colf: %d trailing bytes after sections", len(payload)-c.off)
	}

	r.left = nRecs
	r.lastAt, r.lastDur = 0, 0
	clear(r.lastNum)
	clear(r.shapes)
	if nRecs == 0 {
		return r.drained()
	}
	return nil
}

// drained checks, after a block's last record, that its sections hold
// nothing more.
func (r *Reader) drained() error {
	for i, s := range r.secs {
		if s.off != len(s.buf) {
			return fmt.Errorf("colf: section %d has %d undecoded bytes", i, len(s.buf)-s.off)
		}
	}
	return nil
}

// lookup returns dictionary entry id of the current block.
func (r *Reader) lookup(id uint64) (string, error) {
	if id >= uint64(len(r.dictEnds)) {
		return "", fmt.Errorf("colf: dictionary id %d out of range (%d entries)", id, len(r.dictEnds))
	}
	lo := uint32(0)
	if id > 0 {
		lo = r.dictEnds[id-1]
	}
	return r.dict[lo:r.dictEnds[id]], nil
}

// decodeRecord decodes the current block's next record from its sections
// into rec and returns its scope.
func (r *Reader) decodeRecord(rec *obs.Record) (string, error) {
	secs := &r.secs
	expID, err := secs[secExp].uvarint()
	if err != nil {
		return "", err
	}
	scope, err := r.lookup(expID)
	if err != nil {
		return "", err
	}

	w, err := secs[secAt].uvarint()
	if err != nil {
		return "", err
	}
	switch {
	case w == xwRepeat:
		// lastAt unchanged
	case w == xwAtRaw:
		if r.lastAt, err = secs[secAt].raw8(); err != nil {
			return "", err
		}
	case w < xwMin:
		return "", fmt.Errorf("colf: invalid at-stream code %d", w)
	default:
		r.lastAt ^= unXorShift(w)
	}
	d, err := secs[secDur].uvarint()
	if err != nil {
		return "", err
	}
	r.lastDur += uint64(unzigzag(d))

	subID, err := secs[secSub].uvarint()
	if err != nil {
		return "", err
	}
	sub, err := r.lookup(subID)
	if err != nil {
		return "", err
	}
	nameID, err := secs[secName].uvarint()
	if err != nil {
		return "", err
	}
	name, err := r.lookup(nameID)
	if err != nil {
		return "", err
	}

	*rec = obs.Span(math.Float64frombits(r.lastAt), math.Float64frombits(r.lastDur), sub, name)
	shapeID, err := secs[secShape].uvarint()
	if err != nil {
		return "", err
	}
	kws, ok := r.shapes[shapeID]
	if !ok {
		shape, err := r.lookup(shapeID)
		if err != nil {
			return "", err
		}
		sc := &blockCursor{buf: []byte(shape)}
		for sc.off < len(sc.buf) {
			kw, err := sc.uvarint()
			if err != nil {
				return "", fmt.Errorf("colf: malformed field shape %d: %w", shapeID, err)
			}
			kws = append(kws, kw)
		}
		r.shapes[shapeID] = kws
	}
	for _, kw := range kws {
		keyID := kw >> 1
		key, err := r.lookup(keyID)
		if err != nil {
			return "", err
		}
		if kw&1 == fkStr {
			valID, err := secs[secFVal].uvarint()
			if err != nil {
				return "", err
			}
			val, err := r.lookup(valID)
			if err != nil {
				return "", err
			}
			*rec = rec.With(obs.S(key, val))
			continue
		}
		w, err := secs[secFVal].uvarint()
		if err != nil {
			return "", err
		}
		bits := r.lastNum[keyID]
		switch {
		case w == xwRepeat:
			// previous same-key value, unchanged
		case w == xwNumDur:
			bits = r.lastDur
		case w == xwNumAt:
			bits = r.lastAt
		case w == xwNumRaw:
			if bits, err = secs[secFVal].raw8(); err != nil {
				return "", err
			}
		case w < xwMin:
			return "", fmt.Errorf("colf: invalid fval-stream code %d", w)
		default:
			bits ^= unXorShift(w)
		}
		r.lastNum[keyID] = bits
		*rec = rec.With(obs.F(key, math.Float64frombits(bits)))
	}
	return scope, nil
}

// DecodeToJSON streams a colf artifact back out as JSON Lines, one object
// per record in encoding order, rendered through the same
// obs.AppendRecordJSON path as the direct JSONL export — so the output is
// byte-identical to what WriteTraceJSON (or the -trace-format=jsonl path)
// would have produced for the same record sequence.
func DecodeToJSON(src io.Reader, dst io.Writer) error {
	r := NewReader(src)
	bw := bufio.NewWriter(dst)
	var buf []byte
	for {
		scope, rec, err := r.Next()
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		buf = obs.AppendRecordJSON(buf[:0], scope, &rec)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
}
