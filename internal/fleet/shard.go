package fleet

import (
	"math"

	"fivegsim/internal/transport"
)

// shard is one ownership domain of a campaign: a contiguous UE id range,
// simulated one session at a time in UE id order. UEs never interact, so
// the order in which sessions run cannot reach a byte of output, and a
// shard needs no calendar: each session advances its own clock from its
// arrival through its last chunk, its RRC tail and any cascade. Shards
// share only the read-only deployment and disjoint ranges of the campaign
// results slice, so they run without locks.
type shard struct {
	cfg     Config
	dep     *deployment
	results []UEResult // campaign-wide; this shard writes [lo, hi) only
	nchunks int32
	// rsrpBase is the running session's radio cache: each layer's
	// shadow-free best base RSRP at the session's (static) position,
	// filled once per session and read by serveCached every chunk.
	rsrpBase []float64
	// The shard's shares of Result.Events and of the chunk counters.
	events           uint64
	chunks, nrChunks int64
	// every is the trace sampling stride, 0 when the campaign does not
	// trace; sampled holds the sessions of every every-th UE, in UE id
	// order.
	every   int
	sampled []sessionSample
}

// sessionSample is one trace-sampled session, tagged with its UE id for
// the trace record.
type sessionSample struct {
	ue int
	u  UEResult
}

// session is one UE's state from arrival to idle. It lives on the stack of
// shard.session, so a session allocates nothing.
type session struct {
	ue  int    // global UE id (index into the campaign results slice)
	rng uint64 // splitmix64 stream state, seeded by UESeed

	// radio environment
	pos     float64 // route position, km (static per session)
	shadow  float64 // AR(1) shadow fading state, dB
	blocked bool    // mmWave line-of-sight blockage state

	chunk   int32   // chunks completed
	lastEnd float64 // when the last chunk (or promotion) finished

	// ABR player
	buffer float64
	lastQ  int32
	ring   [3]float64 // recent chunk throughputs (harmonic predictor)
	nring  int32

	// transport (CUBIC state, packets)
	cwnd  float64
	ssth  float64
	wmax  float64
	k     float64 // CUBIC inflection time, cached at each loss
	epoch float64 // time of last loss
	slow  bool

	// accumulators
	arrive  float64
	qoe     float64
	stall   float64
	startup float64
	energyJ float64
	mb      float64 // megabits fetched
	activeS float64 // seconds spent transferring
	nr      int32   // chunks served over an NR layer
}

// newShard prepares (but does not run) a shard of the campaign.
func newShard(cfg Config, dep *deployment, results []UEResult) *shard {
	sh := &shard{cfg: cfg, dep: dep, results: results}
	sh.nchunks = int32(math.Ceil(cfg.SessionS / chunkS))
	if sh.nchunks < 1 {
		sh.nchunks = 1
	}
	sh.rsrpBase = make([]float64, len(dep.layers))
	if cfg.Spill != nil || cfg.Obs.Enabled() {
		sh.every = cfg.TraceEvery
	}
	return sh
}

// run simulates the sessions of the UE range [lo, hi), in id order.
func (sh *shard) run(lo, hi int) {
	for ue := lo; ue < hi; ue++ {
		sh.session(ue)
	}
}

// session simulates one UE from arrival to idle: seed its stream, place it
// on the route, fetch chunk 0 at the arrival instant and each later chunk
// when the previous one's delay has passed, then run out the RRC tail and
// any cascade. The clock moves by each step's delay, and a negative or NaN
// delay counts as 0, so a session's times are the ones an event calendar
// would give it.
//
//fgvet:noalloc
func (sh *shard) session(ue int) {
	d := sh.dep
	as := arrivalSeed(sh.cfg.Seed, uint64(ue))
	now := sh.cfg.WindowS * rngU01(&as)
	s := session{
		ue:      ue,
		rng:     UESeed(sh.cfg.Seed, uint64(ue)),
		lastEnd: now,
		cwnd:    initCwndPkts,
		ssth:    math.Inf(1),
		epoch:   now,
		slow:    true,
		arrive:  now,
	}
	s.pos = routeKm * rngU01(&s.rng)
	// The position is static for the whole session, so each layer's
	// shadow-free best base RSRP is resolved once here; serveCached
	// replays only the shadow add and the floor clamp per chunk.
	d.baseRSRP(s.pos, sh.rsrpBase)
	sh.events++ // admission, which also fetches chunk 0
	for s.chunk < sh.nchunks {
		if delay := sh.stepChunk(&s, now); delay > 0 {
			now += delay
		}
		sh.events++ // the next chunk, or the end of the RRC tail
	}
	s.energyJ += d.tailJ
	if d.hasCascade {
		// The NSA LTE-anchored tail (at tail power) or the SA
		// RRC_INACTIVE dwell (at inactive power); cascadeS > 0.
		now += d.cascadeS
		sh.events++
		s.energyJ += d.cascadeJ
	}
	sh.finalize(&s, now)
}

// Session model constants. The channel constants discretize the cell
// package's per-second fading to chunk granularity; the ABR constants are
// the buffer-based (reservoir) policy of the ABR experiments; QoE weights
// mirror abr.QoEWeights' shape (smoothness penalty per Mbps of switch,
// rebuffer penalty of one top-rate chunk per stalled second, normalized per
// chunk at finalize).
const (
	shadowSigmaDb = 4.0  // stationary shadow-fading std dev
	shadowRho     = 0.55 // chunk-to-chunk correlation (~4 s steps)
	mmBlockEnter  = 0.12 // P(LoS -> blocked) per chunk
	mmBlockClear  = 0.50 // P(blocked -> LoS) per chunk

	maxBufferS    = 20.0
	reservoirS    = 4.0
	rateSafety    = 0.8 // fetch at most this fraction of predicted rate
	smoothPenalty = 0.5
	rebufPenalty  = 1.0

	tailThresholdS = 0.1 // inter-chunk gap that drops into connected DRX
)

// shadowInnovScale is the AR(1) innovation scale sigma*sqrt(1-rho^2),
// hoisted out of the chunk loop: the subexpression is constant, and Go's
// left-associative evaluation multiplies it by the normal draw last either
// way, so the hoist is bit-identical.
var shadowInnovScale = shadowSigmaDb * math.Sqrt(1-shadowRho*shadowRho)

// stepChunk fetches one video chunk at now: evolve the channel, pay the
// RRC control-plane delay, pick a track, download it through the
// CUBIC-lite flow, and account buffer/stall/QoE/energy. It returns the
// delay until the session's next step: the next chunk's request, or after
// the last chunk, the end of the RRC tail that starts at the last data
// activity. Everything is closed-form or boundedly iterative — no
// per-chunk allocation.
//
//fgvet:noalloc
func (sh *shard) stepChunk(s *session, now float64) float64 {
	d := sh.dep

	// Channel evolution since the previous chunk: mmWave blockage Markov
	// state and AR(1) shadow fading.
	if d.hasMm {
		u := rngU01(&s.rng)
		if s.blocked {
			if u < mmBlockClear {
				s.blocked = false
			}
		} else if u < mmBlockEnter {
			s.blocked = true
		}
	}
	s.shadow = shadowRho*s.shadow + shadowInnovScale*rngNorm(&s.rng)
	la, rsrp, capMbps := d.serveCached(sh.rsrpBase, s.shadow, s.blocked)

	// Control-plane delay before the request leaves the UE.
	ctl := 0.0
	if s.chunk == 0 {
		// RRC_IDLE -> CONNECTED: paging-occasion alignment plus the
		// promotion (SA promotes straight to NR; NSA/LTE promote the
		// 4G anchor first and data flows immediately after).
		ctl = rngU01(&s.rng) * d.prim.IdleDRXMs / 1000
		ctl += d.promoS
		s.energyJ += d.switchW * ctl
	} else {
		gap := now - s.lastEnd
		if gap > tailThresholdS {
			// Buffer-full wait spent in connected DRX: the next
			// request waits for the long-DRX wakeup boundary.
			if drx := d.longDRXs; drx > 0 {
				if rem := math.Mod(gap, drx); rem > 1e-9 {
					ctl = drx - rem
				}
			}
		}
		if gap+ctl > 0 {
			s.energyJ += d.tailW * (gap + ctl)
		}
	}

	q := sh.selectTrack(s)
	bitrate := d.ladder[q]
	sizeMb := bitrate * chunkS
	dl := sh.download(s, la, capMbps, sizeMb, now+ctl)
	thr := sizeMb / dl

	// Transfer energy from the ground-truth power process (§4.4), through
	// the layer's flattened curve — the (device, class) combination was
	// validated when the deployment was built, so there is no error path.
	pw := la.dlPower.PowerMw(thr, rsrp)
	s.energyJ += pw / 1000 * dl

	// Player buffer and QoE accounting.
	fetch := ctl + dl
	if s.chunk == 0 {
		s.startup = now + fetch - s.arrive
	} else if fetch > s.buffer {
		s.stall += fetch - s.buffer
		s.buffer = 0
	} else {
		s.buffer -= fetch
	}
	s.buffer += chunkS
	s.qoe += bitrate
	if s.chunk > 0 {
		s.qoe -= smoothPenalty * math.Abs(bitrate-d.ladder[s.lastQ])
	}
	s.lastQ = int32(q)
	s.ring[int(s.nring)%3] = thr
	s.nring++
	s.mb += sizeMb
	s.activeS += dl
	if la.nr {
		s.nr++
	}
	s.chunk++
	s.lastEnd = now + fetch

	if s.chunk < sh.nchunks {
		wait := 0.0
		if s.buffer > maxBufferS {
			wait = s.buffer - maxBufferS
			s.buffer = maxBufferS
		}
		return fetch + wait
	}
	return fetch + d.tailS
}

// finalize writes the UE's result, its session over at now, into the
// campaign slice (its own index: no cross-shard contention), counts the
// session's chunks and keeps the session when its UE is trace-sampled.
//
//fgvet:noalloc
func (sh *shard) finalize(s *session, now float64) {
	d := sh.dep
	chunks := s.chunk
	qoe := s.qoe - rebufPenalty*d.ladder[len(d.ladder)-1]*s.stall
	mean := 0.0
	if s.activeS > 0 {
		mean = s.mb / s.activeS
	}
	u := UEResult{
		ArrivalS:  s.arrive,
		DurationS: now - s.arrive,
		MeanMbps:  mean,
		QoE:       qoe / float64(chunks),
		StallS:    s.stall,
		StartupS:  s.startup,
		EnergyJ:   s.energyJ,
		Chunks:    chunks,
		NRChunks:  s.nr,
	}
	sh.results[s.ue] = u
	sh.chunks += int64(chunks)
	sh.nrChunks += int64(s.nr)
	if sh.every > 0 && s.ue%sh.every == 0 {
		sh.sampled = append(sh.sampled, sessionSample{ue: s.ue, u: u})
	}
}

// selectTrack is the session's ABR policy: rate-based selection from
// the harmonic mean of the last three chunk throughputs, clamped by a
// buffer reservoir (low buffer forces the lowest track) and a one-step
// upward switch limit for smoothness.
//
//fgvet:noalloc
func (sh *shard) selectTrack(s *session) int {
	d := sh.dep
	if s.chunk == 0 || s.nring == 0 {
		return 0
	}
	n := int(s.nring)
	if n > 3 {
		n = 3
	}
	inv, cnt := 0.0, 0
	for j := 0; j < n; j++ {
		if v := s.ring[j]; v > 0 {
			inv += 1 / v
			cnt++
		}
	}
	pred := 0.0
	if cnt > 0 && inv > 0 {
		pred = float64(cnt) / inv
	}
	q := 0
	for k := len(d.ladder) - 1; k > 0; k-- {
		if d.ladder[k] <= pred*rateSafety {
			q = k
			break
		}
	}
	if s.buffer < reservoirS {
		return 0
	}
	if q > int(s.lastQ)+1 {
		q = int(s.lastQ) + 1
	}
	return q
}

// Transport constants: the CUBIC parameters and window accounting of the
// transport package's fluid model, distilled to per-chunk granularity.
const (
	initCwndPkts = 10
	cubicC       = 0.4
	cubicBeta    = 0.7
	// mssMb is one MSS in megabits.
	mssMb = transport.MSSBytes * 8 / 1e6
	// wndCapPkts is the send-buffer window limit for a tuned sender
	// (tcp_wmem raised to 16 MiB, of which ~1/4 is usable in-flight
	// window — transport's wndFraction). This is what window-limits
	// single-flow mmWave throughput.
	wndCapPkts = float64(transport.TunedWmemBytes) * 0.25 / transport.MSSBytes
	// bdpHeadroom bounds cwnd above the path BDP (one BDP of queue).
	bdpHeadroom = 1.1
	// maxRTTIters bounds the per-chunk RTT ladder; a transfer still
	// unfinished after this many windows drains at the steady rate.
	maxRTTIters = 256
)

// download moves sizeMb through the UE's CUBIC-lite flow and returns the
// transfer time. It walks RTT-sized windows with transport.SimulateTCP's
// CUBIC rules: the initial window, slow-start doubling, cubic growth
// against the loss epoch bounded at 1.5x per RTT, the send-buffer window
// limit, and the multiplicative decrease that records wmax, k and the
// epoch. It drops the rest of SimulateTCP's flow. cwnd is capped at
// bdpHeadroom times the path BDP, where SimulateTCP caps it at 1.05x the
// send-buffer window, and floored at 2. There is no Reno-friendly window.
// Loss is not drawn per RTT from per-packet and overflow terms: radio loss
// episodes arrive as at most one multiplicative decrease per chunk, with
// probability from the layer's episode rate over the transfer window. The
// ladder runs per chunk rather than per measurement run, with cwnd
// persisting in the session across chunks.
//
//fgvet:noalloc
func (sh *shard) download(s *session, la *layer, capMbps, sizeMb, start float64) float64 {
	rtt := la.rttS
	// Per-call CUBIC state lives in registers: ssth/wmax/k/epoch are only
	// rewritten by the loss branch after the ladder, so inside the loop they
	// are plain loop-invariant locals, not per-iteration loads through s.
	cwnd := s.cwnd
	slow := s.slow
	ssth := s.ssth
	wmax := s.wmax
	kk := s.k
	epoch := s.epoch
	capPerRTT := capMbps * rtt // megabits the link drains per RTT
	bdpPkts := capPerRTT / mssMb
	bdpCap := bdpPkts * bdpHeadroom
	remaining := sizeMb
	t := 0.0
	for iter := 0; iter < maxRTTIters && remaining > 0; iter++ {
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		perRTT := w * mssMb
		rate := perRTT / rtt
		if rate > capMbps {
			rate = capMbps
			perRTT = capPerRTT
		}
		// Once cwnd sits exactly at the BDP cap, every further window
		// update reproduces the same state, in either of the two branches
		// that leave slow and ssth alone. In slow start below ssth, the
		// doubled cwnd exceeds bdpCap and clamps back to it. Out of slow
		// start, a cubic target above cwnd clamps back to bdpCap and a
		// target below leaves cwnd as is. cwnd >= 2 on every entry and
		// after every update, so cwnd == bdpCap implies bdpCap >= 2 and
		// the floor clamp is a no-op too. (The third case, slow start at
		// or above ssth, leaves slow start: not invariant.) The window,
		// per-RTT volume, and rate are then loop-invariant and the rest of
		// the transfer drains in a tight subtract/add loop — bit-identical
		// to walking the full update, because every skipped update is a
		// no-op.
		if cwnd == bdpCap && (!slow || cwnd < ssth) {
			for ; iter < maxRTTIters && remaining > perRTT; iter++ {
				remaining -= perRTT
				t += rtt
			}
			if iter < maxRTTIters {
				t += remaining / rate
				remaining = 0
			}
			break
		}
		if remaining <= perRTT {
			t += remaining / rate
			remaining = 0
			break
		}
		remaining -= perRTT
		t += rtt
		if slow && cwnd < ssth {
			cwnd *= 2
		} else {
			slow = false
			et := start + t - epoch
			dd := et - kk
			target := cubicC*dd*dd*dd + wmax
			if target > cwnd {
				if g := cwnd * 1.5; target > g { // bound per-RTT jump
					target = g
				}
				cwnd = target
			}
		}
		if cwnd > bdpCap {
			cwnd = bdpCap
		}
		if cwnd < 2 {
			cwnd = 2
		}
	}
	if remaining > 0 {
		// Pathologically slow link: drain the rest at the steady rate.
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		rate := w * mssMb / rtt
		if rate > capMbps {
			rate = capMbps
		}
		if rate < outageFloorMbps {
			rate = outageFloorMbps
		}
		t += remaining / rate
	}
	// Radio loss episodes over the transfer window, utilization-gated as
	// in SimulateTCP: a window-limited flow rides out a short dip.
	util := (sizeMb / t) / capMbps
	if util > 1 {
		util = 1
	}
	if lossDrawn(rngU01(&s.rng), float64(-la.lossEv*util*t)) {
		s.wmax = cwnd
		s.k = math.Cbrt(s.wmax * (1 - cubicBeta) / cubicC)
		cwnd = math.Max(2, cwnd*cubicBeta)
		s.ssth = cwnd
		s.epoch = start + t
		slow = false
	}
	s.slow = slow
	s.cwnd = cwnd
	return t
}

// lossDrawn reports u < 1-Exp(x), the chunk's loss draw, decided by
// transport's proven bracket (ev = cg = 0), so Exp runs only for the draws
// that land inside it and the decision does not depend on the host's Exp.
// download rounds x explicitly, so no compiler fuses its product into the
// bracket's sums.
func lossDrawn(u, x float64) bool {
	lo, hi := transport.LossBracket(x, 0, 0)
	return u < lo || u < hi && u < transport.LossExact(x, 0, 0)
}
