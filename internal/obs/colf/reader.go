package colf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"fivegsim/internal/obs"
)

// Reader decodes a colf stream block by block. Memory is O(block): one
// frame is buffered and decoded at a time, however large the artifact.
type Reader struct {
	br *bufio.Reader

	scopes  []string
	recs    []obs.Record
	pos     int
	payload []byte
	lastNum map[uint64]uint64
	shapes  map[uint64][]uint64 // shape dict id -> parsed field words

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
	for r.pos >= len(r.recs) {
		if err := r.readBlock(); err != nil {
			return "", obs.Record{}, err
		}
	}
	i := r.pos
	r.pos++
	return r.scopes[i], r.recs[i], nil
}

// readBlock reads and decodes the next frame into r.scopes/r.recs.
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
	// of its own size before the stream runs out.
	buf := bytes.NewBuffer(r.payload[:0])
	got, err := io.CopyN(buf, r.br, int64(n))
	r.payload = buf.Bytes()
	if err != nil {
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // what io.ReadFull reports for a short read
		}
		return fmt.Errorf("colf: truncated block (want %d bytes): %w", n, err)
	}
	return r.decodeBlock(r.payload)
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

// decodeBlock rebuilds the block's records. Delta chains and the
// dictionary are block-local, mirroring the encoder exactly.
func (r *Reader) decodeBlock(payload []byte) error {
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
	if nDict > uint64(len(payload)) {
		return fmt.Errorf("colf: dictionary count %d exceeds payload", nDict)
	}
	dict := make([]string, nDict)
	for i := range dict {
		sz, err := c.uvarint()
		if err != nil {
			return err
		}
		b, err := c.bytes(sz)
		if err != nil {
			return err
		}
		dict[i] = string(b)
	}
	lookup := func(id uint64) (string, error) {
		if id >= uint64(len(dict)) {
			return "", fmt.Errorf("colf: dictionary id %d out of range (%d entries)", id, len(dict))
		}
		return dict[id], nil
	}

	var secs [nSections]*blockCursor
	for i := range secs {
		sz, err := c.uvarint()
		if err != nil {
			return err
		}
		b, err := c.bytes(sz)
		if err != nil {
			return fmt.Errorf("colf: section %d: %w", i, err)
		}
		secs[i] = &blockCursor{buf: b}
	}
	if c.off != len(payload) {
		return fmt.Errorf("colf: %d trailing bytes after sections", len(payload)-c.off)
	}

	r.scopes = r.scopes[:0]
	r.recs = r.recs[:0]
	r.pos = 0
	clear(r.lastNum)
	clear(r.shapes)
	var lastAt, lastDur uint64
	for i := uint64(0); i < nRecs; i++ {
		expID, err := secs[secExp].uvarint()
		if err != nil {
			return err
		}
		scope, err := lookup(expID)
		if err != nil {
			return err
		}

		w, err := secs[secAt].uvarint()
		if err != nil {
			return err
		}
		switch {
		case w == xwRepeat:
			// lastAt unchanged
		case w == xwAtRaw:
			if lastAt, err = secs[secAt].raw8(); err != nil {
				return err
			}
		case w < xwMin:
			return fmt.Errorf("colf: invalid at-stream code %d", w)
		default:
			lastAt ^= unXorShift(w)
		}
		d, err := secs[secDur].uvarint()
		if err != nil {
			return err
		}
		lastDur += uint64(unzigzag(d))

		subID, err := secs[secSub].uvarint()
		if err != nil {
			return err
		}
		sub, err := lookup(subID)
		if err != nil {
			return err
		}
		nameID, err := secs[secName].uvarint()
		if err != nil {
			return err
		}
		name, err := lookup(nameID)
		if err != nil {
			return err
		}

		rec := obs.Span(math.Float64frombits(lastAt), math.Float64frombits(lastDur), sub, name)
		shapeID, err := secs[secShape].uvarint()
		if err != nil {
			return err
		}
		kws, ok := r.shapes[shapeID]
		if !ok {
			shape, err := lookup(shapeID)
			if err != nil {
				return err
			}
			sc := &blockCursor{buf: []byte(shape)}
			for sc.off < len(sc.buf) {
				kw, err := sc.uvarint()
				if err != nil {
					return fmt.Errorf("colf: malformed field shape %d: %w", shapeID, err)
				}
				kws = append(kws, kw)
			}
			r.shapes[shapeID] = kws
		}
		for _, kw := range kws {
			keyID := kw >> 1
			key, err := lookup(keyID)
			if err != nil {
				return err
			}
			if kw&1 == fkStr {
				valID, err := secs[secFVal].uvarint()
				if err != nil {
					return err
				}
				val, err := lookup(valID)
				if err != nil {
					return err
				}
				rec = rec.With(obs.S(key, val))
				continue
			}
			w, err := secs[secFVal].uvarint()
			if err != nil {
				return err
			}
			bits := r.lastNum[keyID]
			switch {
			case w == xwRepeat:
				// previous same-key value, unchanged
			case w == xwNumDur:
				bits = lastDur
			case w == xwNumAt:
				bits = lastAt
			case w == xwNumRaw:
				if bits, err = secs[secFVal].raw8(); err != nil {
					return err
				}
			case w < xwMin:
				return fmt.Errorf("colf: invalid fval-stream code %d", w)
			default:
				bits ^= unXorShift(w)
			}
			r.lastNum[keyID] = bits
			rec = rec.With(obs.F(key, math.Float64frombits(bits)))
		}
		r.scopes = append(r.scopes, scope)
		r.recs = append(r.recs, rec)
	}
	for i, s := range secs {
		if s.off != len(s.buf) {
			return fmt.Errorf("colf: section %d has %d undecoded bytes", i, len(s.buf)-s.off)
		}
	}
	return nil
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
