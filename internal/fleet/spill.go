package fleet

import (
	"io"

	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// Spill streams a campaign's sampled per-session trace records straight to
// an artifact writer, instead of collecting them in Obs's tracer for a
// render after the last campaign.
//
// Run's one pass over a campaign's results hands the spill each sampled
// session once the shards join, in UE id order, and the spill encodes them
// serially: as colf records through one colf.Writer, or as JSON Lines
// rendered into a buffer and written once per campaign. The artifact is byte-identical to the
// central pipeline (Config.Obs, then WriteTraceJSON or a colf Writer over
// the merged tracer) at any shard count, because both receive the same
// records in the same order. Serial encoding is cheap next to the
// simulation: at the default stride a campaign samples about 512 sessions
// (DESIGN.md, "One fleet trace path").
//
// A Spill may serve several sequential campaigns (fgfleet runs one per
// mix); colf blocks span campaign edges exactly as they do in a central
// stream. A Spill must not be shared by concurrent Run calls. Callers must
// Close it once after the last campaign.
type Spill struct {
	scope string
	cw    *colf.Writer // colf mode
	jw    io.Writer    // jsonl mode
	buf   []byte       // jsonl mode: the current campaign's rendered records
}

// NewColfSpill returns a Spill encoding the trace as a colf stream with
// the default block size, scoping every record with scope.
func NewColfSpill(w io.Writer, scope string) *Spill {
	return &Spill{scope: scope, cw: colf.NewWriter(w)}
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

// add encodes one record of the current campaign.
func (sp *Spill) add(r obs.Record) error {
	if sp.cw != nil {
		return sp.cw.Add(sp.scope, &r)
	}
	sp.buf = obs.AppendRecordJSON(sp.buf, sp.scope, &r)
	sp.buf = append(sp.buf, '\n')
	return nil
}

// endCampaign writes the campaign's JSON Lines in one Write, so a
// multi-campaign trace reaches the writer campaign by campaign. colf
// records stay with the colf.Writer, which writes whole blocks.
func (sp *Spill) endCampaign() error {
	if len(sp.buf) == 0 {
		return nil
	}
	_, err := sp.jw.Write(sp.buf)
	sp.buf = sp.buf[:0]
	return err
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
