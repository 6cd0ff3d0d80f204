package fleet

import (
	"bytes"
	"io"
	"slices"

	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// Spill streams a campaign's sampled per-session trace records straight to
// an artifact writer, with the record encoding done by the shards in
// parallel instead of by the serial reduce.
//
// The central pipeline (Config.Obs, then WriteTraceJSON or a colf Writer
// over the merged tracer) holds every record in memory and encodes it
// serially after the shards join. With a Spill, each shard encodes its own
// slice of the record stream concurrently with the other shards'
// simulation work, and Run stitches the segments together in shard order.
// The stitched artifact is byte-identical to the central pipeline's at any
// shard count:
//
//   - Sampling is a fixed stride over UE ids (ue % every == 0), and shards
//     own contiguous id ranges, so each shard's sampled records form a
//     contiguous slice of the global record stream whose start offset is
//     known in advance — no coordination needed.
//   - JSONL renders every record independently, so shard segments
//     concatenate verbatim.
//   - colf blocks are self-contained (dictionary and delta chains reset at
//     each boundary), so a shard can pre-encode exactly the full blocks
//     that fall inside its slice; the boundary remainders are handed to
//     the stitcher as raw records and re-blocked centrally, which is the
//     same few-records-per-boundary work a single writer would have done.
//
// A Spill may serve several sequential campaigns (fgfleet runs one per
// mix): the global record offset carries across Run calls, so colf block
// boundaries straddle campaigns exactly as they do in a central stream.
// A Spill must not be shared by concurrent Run calls. Callers must Close
// it once after the last campaign.
type Spill struct {
	scope     string
	blockRecs int
	cw        *colf.Writer // colf mode
	jw        io.Writer    // jsonl mode: segments arrive fully rendered
	base      uint64       // records stitched so far, across campaigns
}

// NewColfSpill returns a Spill encoding the trace as a colf stream with
// the default block size, scoping every record with scope.
func NewColfSpill(w io.Writer, scope string) *Spill {
	return NewColfSpillSize(w, scope, colf.DefaultBlockRecords)
}

// NewColfSpillSize is NewColfSpill with an explicit records-per-block
// threshold (minimum 1). Shard-side segment encoders use the same
// threshold, which is what keeps block boundaries where a single central
// writer would have put them.
func NewColfSpillSize(w io.Writer, scope string, blockRecs int) *Spill {
	if blockRecs < 1 {
		blockRecs = 1
	}
	return &Spill{scope: scope, blockRecs: blockRecs, cw: colf.NewWriterSize(w, blockRecs)}
}

// NewJSONLSpill returns a Spill rendering the trace as JSON Lines,
// scoping every record with scope.
func NewJSONLSpill(w io.Writer, scope string) *Spill {
	return &Spill{scope: scope, jw: w}
}

// Close flushes the spill after the final campaign. It must be called
// exactly once; the underlying writer is not closed.
func (sp *Spill) Close() error {
	if sp.cw != nil {
		return sp.cw.Close()
	}
	return nil
}

// sessionRecord renders one sampled session as the fleet trace record,
// with any artifact tags appended after the session fields — the same
// field order the central pipeline produces via reduce plus MergeTagged.
func sessionRecord(ue int, u *UEResult, tags []obs.Field) obs.Record {
	r := obs.Span(u.ArrivalS, u.DurationS, "fleet", "session").
		With(obs.F("ue", float64(ue))).
		With(obs.F("mbps", u.MeanMbps)).
		With(obs.F("qoe", u.QoE)).
		With(obs.F("energy_j", u.EnergyJ))
	for _, tag := range tags {
		r = r.With(tag)
	}
	return r
}

// sampledBelow counts the sampled UE ids in [0, n) at the given stride —
// the record-stream offset of UE id n.
func sampledBelow(n, every int) uint64 {
	return uint64((n + every - 1) / every)
}

// samples returns the shard's sampled sessions in UE id order, for the
// spill path. In exact mode they come from the shard's slice of the
// results array; in stream mode from the stats fold, which collects them
// in session-completion order and so needs a sort (the set is the same:
// both are the stride over the shard's id range).
func (sh *shard) samples(rg Range, every int) []sessionSample {
	if sh.stats != nil {
		s := sh.stats.sampled
		slices.SortFunc(s, func(a, b sessionSample) int { return a.ue - b.ue })
		return s
	}
	first := rg.Lo + (every-rg.Lo%every)%every // first sampled id >= Lo
	var out []sessionSample
	for ue := first; ue < rg.Hi; ue += every {
		out = append(out, sessionSample{ue: ue, u: sh.results[ue]})
	}
	return out
}

// spillSeg is one shard's pre-encoded slice of the global record stream.
// blocks holds whole aligned colf blocks (or, in jsonl mode, every record
// rendered); head and tail carry the boundary remainders as raw records
// for the stitcher to re-block.
type spillSeg struct {
	head   []obs.Record
	blocks []byte
	tail   []obs.Record
}

// encodeSeg encodes a shard's sampled sessions (sorted by UE id) into a
// segment. gstart is the slice's offset in the global record stream,
// counted across every campaign this spill has served. Runs on the shard
// goroutine.
func (sp *Spill) encodeSeg(samples []sessionSample, tags []obs.Field, gstart uint64) spillSeg {
	var seg spillSeg
	if len(samples) == 0 {
		return seg
	}
	if sp.jw != nil {
		var buf []byte
		for i := range samples {
			r := sessionRecord(samples[i].ue, &samples[i].u, tags)
			buf = obs.AppendRecordJSON(buf, sp.scope, &r)
			buf = append(buf, '\n')
		}
		seg.blocks = buf
		return seg
	}
	n := uint64(len(samples))
	b := uint64(sp.blockRecs)
	lo := (gstart + b - 1) / b * b // first aligned block boundary >= gstart
	hi := (gstart + n) / b * b     // last aligned block boundary <= gstart+n
	rec := func(i uint64) obs.Record {
		return sessionRecord(samples[i].ue, &samples[i].u, tags)
	}
	if lo >= hi {
		// The slice contains no whole block; everything is remainder.
		for i := uint64(0); i < n; i++ {
			seg.head = append(seg.head, rec(i))
		}
		return seg
	}
	for g := gstart; g < lo; g++ {
		seg.head = append(seg.head, rec(g-gstart))
	}
	var buf bytes.Buffer
	sw := colf.NewSegmentWriter(&buf, sp.blockRecs)
	for g := lo; g < hi; g++ {
		if err := sw.Add(sp.scope, rec(g-gstart)); err != nil {
			// Unreachable: the segment writer targets an in-memory
			// buffer, which cannot fail. Fail loudly rather than drop
			// trace records.
			panic(err)
		}
	}
	if err := sw.Flush(); err != nil {
		panic(err) // unreachable, as above
	}
	seg.blocks = buf.Bytes()
	for g := hi; g < gstart+n; g++ {
		seg.tail = append(seg.tail, rec(g-gstart))
	}
	return seg
}

// stitch splices the shards' segments into the artifact in shard order,
// re-blocking the boundary remainders, and advances the global record
// offset by the campaign's sampled-record count. Serial, called by Run
// after every shard has joined.
func (sp *Spill) stitch(segs []spillSeg, total uint64) error {
	for i := range segs {
		seg := &segs[i]
		if sp.jw != nil {
			if len(seg.blocks) > 0 {
				if _, err := sp.jw.Write(seg.blocks); err != nil {
					return err
				}
			}
			continue
		}
		for j := range seg.head {
			if err := sp.cw.Add(sp.scope, seg.head[j]); err != nil {
				return err
			}
		}
		if len(seg.blocks) > 0 {
			// The offset arithmetic guarantees the central writer sits on
			// a block boundary here; WriteRawBlocks enforces it.
			if err := sp.cw.WriteRawBlocks(seg.blocks); err != nil {
				return err
			}
		}
		for j := range seg.tail {
			if err := sp.cw.Add(sp.scope, seg.tail[j]); err != nil {
				return err
			}
		}
	}
	sp.base += total
	return nil
}
