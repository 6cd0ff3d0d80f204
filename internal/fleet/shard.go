package fleet

import (
	"math"
	"slices"

	"fivegsim/internal/sim"
	"fivegsim/internal/transport"
)

// shard is one ownership domain of a campaign: a contiguous UE id range, a
// private sim.Engine (engines are never shared across goroutines), and a
// session slab. Shards share only the read-only deployment and disjoint
// ranges of the campaign results slice, so they run without locks.
type shard struct {
	cfg     Config
	dep     *deployment
	eng     *sim.Engine
	slab    slab
	results []UEResult  // campaign-wide; this shard writes [lo, hi) only
	stats   *ShardStats // stream mode: per-shard fold target (results is nil)

	arrivals []arrival
	next     int
	nchunks  int32
	admit    func() // pre-allocated admitter closure
}

// arrival is one UE's session start time, drawn from its arrival stream.
type arrival struct {
	at float64
	ue int
}

// newShard prepares (but does not run) a shard for the UE range [lo, hi).
// Arrival times come from each UE's own (campaignSeed, ueID)-derived
// stream, so the schedule is a property of the population, not of the
// partition.
func newShard(cfg Config, dep *deployment, lo, hi int, results []UEResult) *shard {
	sh := &shard{cfg: cfg, dep: dep, results: results}
	sh.nchunks = int32(math.Ceil(cfg.SessionS / dep.chunkS))
	if sh.nchunks < 1 {
		sh.nchunks = 1
	}
	sh.arrivals = make([]arrival, 0, hi-lo)
	for ue := lo; ue < hi; ue++ {
		s := arrivalSeed(cfg.Seed, uint64(ue))
		sh.arrivals = append(sh.arrivals, arrival{at: cfg.WindowS * rngU01(&s), ue: ue})
	}
	// (at, ue) is a strict total order (ue is unique), so the sorted
	// permutation is unique and independent of the algorithm — swapping the
	// reflect-based sort.Slice for the generic sort cannot move a byte.
	slices.SortFunc(sh.arrivals, func(a, b arrival) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return a.ue - b.ue
	})
	return sh
}

// prepare creates the shard's engine and schedules the first admission.
// Split from run so benchmarks can drive the engine step by step.
func (sh *shard) prepare() {
	sh.eng = sim.NewEngine()
	sh.admit = func() { sh.admitDue() }
	if len(sh.arrivals) > 0 {
		sh.eng.At(sh.arrivals[0].at, sh.admit)
	}
}

// run simulates the shard to completion.
func (sh *shard) run() {
	sh.prepare()
	sh.eng.Run()
}

// admitDue starts every UE whose arrival time has come, then re-arms for
// the next arrival. Lazy admission keeps the calendar and the slab sized to
// peak concurrency instead of the whole population.
//
// The re-arm must use absolute time (At, not Schedule): each UE has to be
// admitted at exactly its arrival float. Relative scheduling computes
// now+(at-now), which drifts by an ulp depending on the preceding arrivals
// in this shard — making a UE's admission time, and every event time in
// its session chain, depend on the partition. Exact-time admission also
// needs no coalescing epsilon; an epsilon would fold near-simultaneous
// arrivals onto one instant only when they happen to share a shard, which
// is the same partition dependence in another form.
//
//fgvet:noalloc
func (sh *shard) admitDue() {
	now := sh.eng.Now()
	for sh.next < len(sh.arrivals) && sh.arrivals[sh.next].at <= now {
		sh.start(sh.arrivals[sh.next].ue)
		sh.next++
	}
	if sh.next < len(sh.arrivals) {
		sh.eng.At(sh.arrivals[sh.next].at, sh.admit)
	}
}

// start admits one UE: allocate a slot, seed its stream, place it on the
// route, and fetch the first chunk immediately (same sim time).
//
//fgvet:noalloc
func (sh *shard) start(ue int) {
	s := &sh.slab
	i := s.alloc(sh)
	now := sh.eng.Now()
	s.ue[i] = ue
	s.rng[i] = UESeed(sh.cfg.Seed, uint64(ue))
	s.pos[i] = routeKm * rngU01(&s.rng[i])
	s.shadow[i] = 0
	s.blocked[i] = false
	s.phase[i] = phaseStream
	s.chunk[i] = 0
	s.lastEnd[i] = now
	s.buffer[i] = 0
	s.lastQ[i] = 0
	s.ring[i] = [3]float64{}
	s.nring[i] = 0
	s.cwnd[i] = initCwndPkts
	s.ssth[i] = math.Inf(1)
	s.wmax[i] = 0
	s.k[i] = 0
	s.epoch[i] = now
	s.slow[i] = true
	s.arrive[i] = now
	s.qoe[i] = 0
	s.stall[i] = 0
	s.startup[i] = 0
	s.energyJ[i] = 0
	s.mb[i] = 0
	s.activeS[i] = 0
	s.nr[i] = 0
	// Admission-time radio cache: the position is static for the whole
	// session, so each layer's shadow-free best base RSRP is resolved once
	// here; serveCached replays only the shadow add and the floor clamp
	// per chunk.
	nl := int32(len(sh.dep.layers))
	sh.dep.baseRSRP(s.pos[i], s.rsrpBase[i*nl:(i+1)*nl])
	sh.stepSlot(i)
}

// stepSlot is the single event entry point for a slot; phase dispatch lets
// one pre-allocated closure drive streaming, the tail, and the cascade.
//
//fgvet:noalloc
func (sh *shard) stepSlot(i int32) {
	switch sh.slab.phase[i] {
	case phaseStream:
		sh.stepChunk(i)
	case phaseTail:
		sh.stepTail(i)
	default:
		sh.finishCascade(i)
	}
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

// stepChunk fetches one video chunk: evolve the channel, pay the RRC
// control-plane delay, pick a track, download it through the CUBIC-lite
// flow, and account buffer/stall/QoE/energy. Everything is closed-form or
// boundedly iterative — no per-chunk allocation.
//
//fgvet:noalloc
func (sh *shard) stepChunk(i int32) {
	s := &sh.slab
	d := sh.dep
	now := sh.eng.Now()

	// Channel evolution since the previous chunk: mmWave blockage Markov
	// state and AR(1) shadow fading.
	if d.hasMm {
		u := rngU01(&s.rng[i])
		if s.blocked[i] {
			if u < mmBlockClear {
				s.blocked[i] = false
			}
		} else if u < mmBlockEnter {
			s.blocked[i] = true
		}
	}
	s.shadow[i] = shadowRho*s.shadow[i] + shadowInnovScale*rngNorm(&s.rng[i])
	nl := int32(len(d.layers))
	la, rsrp, capMbps := d.serveCached(s.rsrpBase[i*nl:(i+1)*nl], s.shadow[i], s.blocked[i])

	// Control-plane delay before the request leaves the UE.
	ctl := 0.0
	if s.chunk[i] == 0 {
		// RRC_IDLE -> CONNECTED: paging-occasion alignment plus the
		// promotion (SA promotes straight to NR; NSA/LTE promote the
		// 4G anchor first and data flows immediately after).
		ctl = rngU01(&s.rng[i]) * d.prim.IdleDRXMs / 1000
		ctl += d.promoS
		s.energyJ[i] += d.switchW * ctl
	} else {
		gap := now - s.lastEnd[i]
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
			s.energyJ[i] += d.tailW * (gap + ctl)
		}
	}

	q := sh.selectTrack(i)
	bitrate := d.ladder[q]
	sizeMb := bitrate * d.chunkS
	dl := sh.download(i, la, capMbps, sizeMb, now+ctl)
	thr := sizeMb / dl

	// Transfer energy from the ground-truth power process (§4.4), through
	// the layer's flattened curve — the (device, class) combination was
	// validated when the deployment was built, so there is no error path.
	pw := la.dlPower.PowerMw(thr, rsrp)
	s.energyJ[i] += pw / 1000 * dl

	// Player buffer and QoE accounting.
	fetch := ctl + dl
	if s.chunk[i] == 0 {
		s.startup[i] = now + fetch - s.arrive[i]
	} else if fetch > s.buffer[i] {
		s.stall[i] += fetch - s.buffer[i]
		s.buffer[i] = 0
	} else {
		s.buffer[i] -= fetch
	}
	s.buffer[i] += d.chunkS
	s.qoe[i] += bitrate
	if s.chunk[i] > 0 {
		s.qoe[i] -= smoothPenalty * math.Abs(bitrate-d.ladder[s.lastQ[i]])
	}
	s.lastQ[i] = int32(q)
	s.ring[i][int(s.nring[i])%3] = thr
	s.nring[i]++
	s.mb[i] += sizeMb
	s.activeS[i] += dl
	if la.nr {
		s.nr[i]++
	}
	s.chunk[i]++
	s.lastEnd[i] = now + fetch

	if s.chunk[i] < sh.nchunks {
		wait := 0.0
		if s.buffer[i] > maxBufferS {
			wait = s.buffer[i] - maxBufferS
			s.buffer[i] = maxBufferS
		}
		sh.eng.Schedule(fetch+wait, s.step[i])
		return
	}
	// Session over: the RRC tail starts at the last data activity.
	s.phase[i] = phaseTail
	sh.eng.Schedule(fetch+d.tailS, s.step[i])
}

// stepTail fires when the (NR) connected tail expires: account its energy
// and either cascade (NSA LTE tail, SA RRC_INACTIVE dwell) or finish.
//
//fgvet:noalloc
func (sh *shard) stepTail(i int32) {
	s := &sh.slab
	d := sh.dep
	s.energyJ[i] += d.tailJ
	if d.hasCascade {
		s.phase[i] = phaseCascade
		sh.eng.Schedule(d.cascadeS, s.step[i])
		return
	}
	sh.finalize(i)
}

// finishCascade ends the post-session state cascade: the NSA LTE-anchored
// tail (at tail power) or the SA RRC_INACTIVE dwell (at inactive power).
//
//fgvet:noalloc
func (sh *shard) finishCascade(i int32) {
	s := &sh.slab
	s.energyJ[i] += sh.dep.cascadeJ
	sh.finalize(i)
}

// finalize writes the UE's result into the campaign slice (its own index:
// no cross-shard contention) and recycles the slot.
//
//fgvet:noalloc
func (sh *shard) finalize(i int32) {
	s := &sh.slab
	d := sh.dep
	chunks := s.chunk[i]
	qoe := s.qoe[i] - rebufPenalty*d.ladder[len(d.ladder)-1]*s.stall[i]
	mean := 0.0
	if s.activeS[i] > 0 {
		mean = s.mb[i] / s.activeS[i]
	}
	u := UEResult{
		ArrivalS:  s.arrive[i],
		DurationS: sh.eng.Now() - s.arrive[i],
		MeanMbps:  mean,
		QoE:       qoe / float64(chunks),
		StallS:    s.stall[i],
		StartupS:  s.startup[i],
		EnergyJ:   s.energyJ[i],
		Chunks:    chunks,
		NRChunks:  s.nr[i],
	}
	if sh.stats != nil {
		sh.stats.observe(int(s.ue[i]), u)
	} else {
		sh.results[s.ue[i]] = u
	}
	s.release(i)
}

// selectTrack is the slab-resident ABR policy: rate-based selection from
// the harmonic mean of the last three chunk throughputs, clamped by a
// buffer reservoir (low buffer forces the lowest track) and a one-step
// upward switch limit for smoothness.
//
//fgvet:noalloc
func (sh *shard) selectTrack(i int32) int {
	s := &sh.slab
	d := sh.dep
	if s.chunk[i] == 0 || s.nring[i] == 0 {
		return 0
	}
	n := int(s.nring[i])
	if n > 3 {
		n = 3
	}
	inv, cnt := 0.0, 0
	for j := 0; j < n; j++ {
		if v := s.ring[i][j]; v > 0 {
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
	if s.buffer[i] < reservoirS {
		return 0
	}
	if q > int(s.lastQ[i])+1 {
		q = int(s.lastQ[i]) + 1
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
// transfer time. It walks RTT-sized windows (slow-start doubling, then
// cubic growth against the loss epoch) exactly like transport.SimulateTCP,
// but per chunk rather than per measurement run, with cwnd persisting in
// the slab across chunks. Radio loss episodes arrive as at most one
// multiplicative decrease per chunk, with probability from the layer's
// episode rate over the transfer window.
//
//fgvet:noalloc
func (sh *shard) download(i int32, la *layer, capMbps, sizeMb, start float64) float64 {
	s := &sh.slab
	rtt := la.rttS
	// Per-call CUBIC state lives in registers: ssth/wmax/k/epoch are only
	// rewritten by the loss branch after the ladder, so inside the loop they
	// are plain loop-invariant locals, not per-iteration slab loads.
	cwnd := s.cwnd[i]
	slow := s.slow[i]
	ssth := s.ssth[i]
	wmax := s.wmax[i]
	kk := s.k[i]
	epoch := s.epoch[i]
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
		// Once the flow leaves slow start and cwnd sits exactly at the BDP
		// cap, every further window update reproduces the same state: a
		// cubic target above cwnd clamps back to bdpCap, a target below
		// leaves cwnd as is, and cwnd == bdpCap after both clamps implies
		// bdpCap >= 2, so both clamps are no-ops too. The window, per-RTT
		// volume, and rate are then loop-invariant and the rest of the
		// transfer drains in a tight subtract/add loop — bit-identical to
		// walking the full update, because every skipped update is a no-op.
		if !slow && cwnd == bdpCap {
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
	if rngU01(&s.rng[i]) < 1-math.Exp(-la.lossEv*util*t) {
		s.wmax[i] = cwnd
		s.k[i] = math.Cbrt(s.wmax[i] * (1 - cubicBeta) / cubicC)
		cwnd = math.Max(2, cwnd*cubicBeta)
		s.ssth[i] = cwnd
		s.epoch[i] = start + t
		slow = false
	}
	s.slow[i] = slow
	s.cwnd[i] = cwnd
	return t
}
