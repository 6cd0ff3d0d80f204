// Package transport implements a fluid-model transport simulator: TCP with
// CUBIC congestion control (slow start, cubic window growth, multiplicative
// decrease, send-buffer clamping), a UDP baseline, and multi-connection
// aggregation over a shared bottleneck.
//
// It reproduces the transport-layer phenomena of §3.2 and Appendix A.2:
//
//   - a single TCP connection with the default kernel send buffer
//     (tcp_wmem) is window-limited to a few hundred Mbps over mmWave paths;
//   - raising tcp_wmem recovers 2.1-3x of that throughput, but CUBIC's
//     loss response still leaves tuned 1-TCP well below UDP, and the gap
//     widens with RTT (UE-server distance);
//   - 15-25 parallel connections (Speedtest's "multiple" mode) fill the
//     pipe regardless of distance.
//
// The model advances in RTT-sized steps with per-flow congestion windows,
// which captures exactly the cwnd-versus-BDP race that produces those
// effects without simulating individual packets.
package transport

import (
	"math"
	"math/rand"

	"fivegsim/internal/obs"
)

// MSSBytes is the maximum segment size used throughout the fluid model.
const MSSBytes = 1460

// DefaultWmemBytes mirrors the Linux v4.18 default tcp_wmem maximum (4 MiB).
const DefaultWmemBytes = 4 << 20

// TunedWmemBytes is the raised send-buffer used for the "1-TCP tuned"
// experiments (16 MiB, comfortably above the largest BDP measured).
const TunedWmemBytes = 16 << 20

// wndFraction is the fraction of the send buffer usable as in-flight window;
// the kernel charges skb overhead and keeps headroom for queued-but-unsent
// data, so the effective window is far below the nominal buffer size.
const wndFraction = 0.25

// PathParams describes the network path a flow set traverses.
type PathParams struct {
	// CapacityMbps is the bottleneck rate available to this flow set.
	CapacityMbps float64
	// RTTSeconds is the base round-trip time (no queueing).
	RTTSeconds float64
	// LossRate is the random (non-congestion) per-packet loss probability.
	// The paper observed < 1% overall on mmWave paths; the random
	// component is tiny (most loss is congestive or radio-event driven).
	LossRate float64
	// LossEventRate is the rate (events/second) of radio-driven loss
	// episodes — beam switches, handovers, short blockage — each of which
	// costs a flow one multiplicative decrease. mmWave paths see a few
	// per ten seconds; wired/low-band paths near zero.
	LossEventRate float64
}

// queueFactor sizes the drop-tail bottleneck buffer as a fraction of the
// BDP: one BDP of buffering.
const queueFactor = 1.0

// initCwnd is the initial congestion window (and BBR's initial pacing
// rate) in packets.
const initCwnd = 10

// TCPOptions configures a TCP simulation.
type TCPOptions struct {
	// Flows is the number of parallel connections; 0 means 1.
	Flows int
	// WmemBytes is the per-flow send buffer; 0 means DefaultWmemBytes.
	WmemBytes float64
	// DurationS is the measurement duration; 0 means 15 s (a Speedtest
	// run).
	DurationS float64
	// Obs, when enabled, collects per-RTT cwnd samples and per-loss trace
	// records. nil (the default) keeps the simulation loop allocation-free.
	Obs *obs.Obs
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Flows == 0 {
		o.Flows = 1
	}
	if o.WmemBytes == 0 {
		o.WmemBytes = DefaultWmemBytes
	}
	if o.DurationS == 0 {
		o.DurationS = 15
	}
	return o
}

// Result summarises a transport simulation.
type Result struct {
	// MeanMbps is the goodput averaged over the whole run.
	MeanMbps float64
	// SteadyMbps is the goodput averaged over the second half of the run,
	// excluding slow-start ramp.
	SteadyMbps float64
	// PerSecondMbps is the 1-second goodput series.
	PerSecondMbps []float64
	// LossEvents counts window reductions across all flows.
	LossEvents int
	// Bytes is the total payload transferred.
	Bytes float64
}

// CUBIC constants (RFC 8312): scaling constant C and multiplicative
// decrease beta.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// cwndBounds buckets congestion windows (packets) from slow-start initials
// to the multi-thousand-packet windows of tuned mmWave paths.
var cwndBounds = []float64{2, 8, 32, 128, 512, 2048, 8192, 32768}

type cubicFlow struct {
	cwnd       float64 // packets
	ssthresh   float64
	wmax       float64
	k          float64 // CUBIC inflection time, cached at each loss
	epochStart float64 // time of last loss
	inSlowStrt bool
}

// SimulateTCP runs parallel CUBIC flows over the path for the configured
// duration and returns the aggregate goodput. The rng drives random loss;
// pass a seeded source for reproducibility.
//
// The loop advances one RTT at a time. Each RTT it splits the window into
// the one-second goodput buckets it overlaps (once, for all flows), then
// gives every flow its share of the link and one uniform draw, in flow
// order. The draw costs the flow a window when it falls below the flow's
// loss probability (LossExact): random per-packet loss over the packets it
// sent, plus the radio-event rate, plus the drop-tail overflow share. A
// proven bracket (LossBracket) settles that comparison without math.Exp
// unless the draw lands inside it, which production inputs almost never
// do, so the result does not depend on the host's Exp.
func SimulateTCP(p PathParams, o TCPOptions, rng *rand.Rand) Result {
	o = o.withDefaults()
	rtt := p.rtt()
	capPkts := p.CapacityMbps * 1e6 * rtt / 8 / MSSBytes // pkts the link drains per RTT
	if capPkts < 1 {
		capPkts = 1
	}
	wndCap := o.WmemBytes * wndFraction / MSSBytes // send-buffer window limit
	// cwndCap is the ceiling on cwnd itself. Every caller's wmem is a
	// positive, finite buffer size (1-64 MiB), so cwndCap is positive and
	// finite, and cwnd never falls below 2 (it starts at initCwnd, a loss
	// floors it at 2, and growth only raises it or clamps it to cwndCap).
	cwndCap := wndCap * 1.05
	flows := make([]cubicFlow, o.Flows)
	for i := range flows {
		flows[i] = cubicFlow{cwnd: initCwnd, ssthresh: math.Inf(1), inSlowStrt: true}
	}

	var res Result
	nSec := int(math.Ceil(o.DurationS))
	res.PerSecondMbps = make([]float64, nSec)
	// log(1-LossRate), hoisted so the per-flow survival probability is at
	// most one Exp instead of a Pow every RTT (and behind LossBracket,
	// almost never that).
	randomLoss := p.LossRate > 0
	logKeep := 0.0
	if randomLoss {
		logKeep = math.Log1p(-p.LossRate)
	}
	desired := make([]float64, len(flows))
	spans := newSpans(rtt, nSec)
	// Observability handles, hoisted so the per-RTT loop pays one bool
	// check when disabled and no map lookups when enabled.
	obsOn := o.Obs.Enabled()
	var cwndHist *obs.Histogram
	if obsOn {
		cwndHist = o.Obs.Meter().Hist("transport.cwnd_pkts", cwndBounds)
	}
	now := 0.0
	for n := rttSteps(o.DurationS, rtt); n > 0; n-- {
		// Demand this RTT.
		demand := 0.0
		for i := range flows {
			d := flows[i].cwnd
			if d > wndCap {
				d = wndCap
			}
			desired[i] = d
			demand += d
		}
		// Link share: proportional to demand.
		share := 1.0
		if demand > capPkts {
			share = capPkts / demand
		}
		// The loss probability's two per-RTT terms. Radio loss episodes
		// (ev) only cost a window reduction when the pipe is actually
		// full; a window-limited flow rides out a short capacity dip with
		// its (empty) queue headroom. Drop-tail overflow (cg) is
		// proportional to the excess when the aggregate exceeds link +
		// queue; it is 0 otherwise, and adding +0 changes no comparison
		// with a draw.
		util := demand / capPkts
		if util > 1 {
			util = 1
		}
		ev := float64(p.LossEventRate * rtt * util)
		cg := 0.0
		if demand > capPkts*(1+queueFactor) {
			cg = (demand - float64(capPkts*(1+queueFactor))) / demand
		}
		spans = splitRTT(spans, now, rtt, o.DurationS, nSec)
		for i := range flows {
			sent := desired[i] * share
			bytes := sent * MSSBytes
			res.Bytes += bytes
			addSpans(res.PerSecondMbps, spans, bytes)

			f := &flows[i]
			if obsOn {
				cwndHist.Observe(f.cwnd)
			}
			// Loss: random per-packet + time-driven radio events +
			// drop-tail overflow, one uniform draw per flow per RTT.
			u := rng.Float64()
			var lost bool
			if randomLoss {
				// Settled by the bracket unless u falls inside it.
				x := float64(logKeep * sent)
				lo, hi := LossBracket(x, ev, cg)
				lost = u < lo || u < hi && u < LossExact(x, ev, cg)
			} else {
				lost = u < ev+cg
			}
			if lost {
				f.wmax = f.cwnd
				f.k = math.Cbrt(f.wmax * (1 - cubicBeta) / cubicC)
				f.cwnd = math.Max(2, f.cwnd*cubicBeta)
				f.ssthresh = f.cwnd
				f.epochStart = now
				f.inSlowStrt = false
				res.LossEvents++
				if obsOn {
					o.Obs.Meter().Inc("transport.loss_events")
					o.Obs.Trace().Emit(obs.Ev(now, "transport", "loss").
						With(obs.F("flow", float64(i))).
						With(obs.F("cwnd", f.cwnd)))
				}
				continue
			}
			if f.inSlowStrt && f.cwnd < f.ssthresh {
				// math.Min(f.cwnd*2, cwndCap): both operands are positive
				// and finite (see cwndCap), so the compare is exact.
				f.cwnd *= 2
				if f.cwnd > cwndCap {
					f.cwnd = cwndCap
				}
				continue
			}
			f.inSlowStrt = false
			// CUBIC window evolution: the greater of the cubic curve and
			// the TCP-friendly (Reno-equivalent) window (RFC 8312 §4.2).
			t := now + rtt - f.epochStart
			d := t - f.k
			target := cubicC*d*d*d + f.wmax
			reno := f.wmax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/rtt)
			if reno > target {
				target = reno
			}
			if target > f.cwnd {
				// Bound the per-RTT jump: math.Min(target, f.cwnd*1.5).
				// target > f.cwnd rules out NaN in either operand and a
				// pair of zeros, the only inputs on which this compare and
				// math.Min differ.
				if g := f.cwnd * 1.5; target > g {
					target = g
				}
				f.cwnd = target
			}
			if f.cwnd > cwndCap {
				f.cwnd = cwndCap
			}
		}
		now += rtt
	}
	res.finish(o.DurationS)
	return res
}

// TCPDraws returns how many uniform draws SimulateTCP(p, o, rng) takes
// from rng: one per flow per RTT step. Calling rng.Float64 that many times
// leaves rng exactly where the simulation would, so a caller that does not
// read a run's result can skip the run and keep every later draw.
func TCPDraws(p PathParams, o TCPOptions) int {
	o = o.withDefaults()
	return o.Flows * rttSteps(o.DurationS, p.rtt())
}

// rttSteps returns how many RTT steps SimulateTCP takes over durationS: it
// adds rtt to a float clock until the clock reaches the duration, and the
// rounded sum does not follow the division (15 s of 10 ms steps is 1501
// steps, where math.Ceil(15/0.01) is 1500).
func rttSteps(durationS, rtt float64) int {
	n := 0
	for now := 0.0; now < durationS; now += rtt {
		n++
	}
	return n
}

// rtt is the path's round-trip time as the simulators step it: a
// non-positive RTTSeconds means 1 ms.
func (p PathParams) rtt() float64 {
	if p.RTTSeconds <= 0 {
		return 0.001
	}
	return p.RTTSeconds
}

// finish sets MeanMbps over the run's durationS and SteadyMbps over the
// second half of the PerSecondMbps series.
func (r *Result) finish(durationS float64) {
	total := 0.0
	for _, v := range r.PerSecondMbps {
		total += v
	}
	r.MeanMbps = total / durationS
	half := r.PerSecondMbps[len(r.PerSecondMbps)/2:]
	s := 0.0
	for _, v := range half {
		s += v
	}
	if len(half) > 0 {
		r.SteadyMbps = s / float64(len(half))
	}
}

// lossSlack is the absolute margin LossBracket keeps around 1 - Exp(x).
// It dwarfs the few-ulp error of any Exp (below 1e-15 here), and widens
// the bracket by only 2e-12, the extra chance per draw of needing Exp.
const lossSlack = 1e-12

// LossExact is the loss probability 1 - Exp(x) + ev + cg, rounded in that
// order. In SimulateTCP it is a flow's loss probability for one RTT: the
// chance that at least one of its packets is lost at random, with
// x = sent*log(1-LossRate) <= 0, plus the radio-event term ev, plus the
// overflow term cg. The fleet's per-chunk loss draw passes
// x = -(episode rate × utilization × transfer time) with ev = cg = 0;
// 1 - Exp(x) is never -0, so adding +0 twice leaves its bits as they are.
func LossExact(x, ev, cg float64) float64 {
	return 1 - math.Exp(x) + ev + cg
}

// LossBracket returns lo and hi with lo <= LossExact(x, ev, cg) <= hi, for
// every host's Exp, without calling Exp. A loss draw u is then settled by
// u < lo (lost) or u >= hi (not lost), and evaluates LossExact only for
// lo <= u < hi, with the same result as u < LossExact bit for bit.
// SimulateTCP and the fleet's chunk kernel both decide their draws so.
//
// The proof, for y = -x in [0, 1]:
//
//   - For every real y >= 0, y - y²/2 <= 1 - e^(-y) <= y.
//   - LossExact's 1 - Exp(x) is within 1e-15 of the real 1 - e^(-y) for any
//     Exp accurate to a few ulps: amd64's assembly with FMA on or off, the
//     pure-Go exp that 386 runs, or a portable kernel. Its argument is x
//     itself, and negating x is exact, so the bound holds for the very
//     value LossExact computes. (SimulateTCP and the fleet round their
//     product x explicitly, so no compiler fuses it into either side.)
//   - lo = y - y²/2 - lossSlack and hi = y + lossSlack are rounded at most
//     three times each on values below 2, so each is within 1e-15 of its
//     real value: lo < 1 - Exp(x) < hi with about 1e-12 to spare.
//   - Rounded addition is monotone: a <= b implies fl(a+c) <= fl(b+c). So
//     adding ev and then cg to lo, to hi and to 1 - Exp(x), in LossExact's
//     order, keeps lo <= LossExact <= hi.
//
// A draw lands inside the bracket with probability about y²/2 + 2e-12.
// SimulateTCP's y stays below 3e-3 (LossRate 1e-6, at most about 2,900
// packets per flow per RTT). The fleet's y, the expected number of loss
// episodes over one chunk's transfer, is larger: 0.09-3.9% of its draws
// need Exp, by deployment. Outside [0, 1], NaN included, LossBracket
// returns (-Inf, +Inf), which sends every draw to LossExact.
func LossBracket(x, ev, cg float64) (lo, hi float64) {
	if y := -x; y >= 0 && y <= 1 {
		return y - float64(y*y/2) - lossSlack + ev + cg, y + lossSlack + ev + cg
	}
	inf := math.Inf(1)
	return -inf, inf
}

// rttSpan is the share of one RTT window that lands in one one-second
// goodput bucket.
type rttSpan struct {
	sec  int
	frac float64
}

// newSpans allocates the per-call span buffer: a window of rtt seconds
// overlaps at most int(rtt)+2 one-second buckets, and never more than nSec.
func newSpans(rtt float64, nSec int) []rttSpan {
	n := nSec
	if rtt < float64(nSec) {
		n = int(rtt) + 2
	}
	return make([]rttSpan, 0, n)
}

// splitRTT splits [now, now+rtt), clipped to the run's duration, into the
// first nSec one-second buckets it overlaps, reusing dst's storage. The
// split does not depend on the flow, so each RTT computes it once for all
// flows.
func splitRTT(dst []rttSpan, now, rtt, duration float64, nSec int) []rttSpan {
	dst = dst[:0]
	end := now + rtt
	if end > duration {
		end = duration
	}
	for t := now; t < end; {
		sec := int(t)
		if sec >= nSec {
			break
		}
		next := math.Min(float64(sec+1), end)
		dst = append(dst, rttSpan{sec: sec, frac: (next - t) / rtt})
		t = next
	}
	return dst
}

// addSpans spreads `bytes` sent during one RTT into the one-second goodput
// buckets, in span order.
func addSpans(buckets []float64, spans []rttSpan, bytes float64) {
	for _, s := range spans {
		buckets[s.sec] += bytes * s.frac * 8 / 1e6 // Mbps contribution within 1 s
	}
}

// SimulateUDP models a constant-rate UDP blast: goodput is the target rate
// clipped by the path capacity. UDP has no congestion control, so it attains
// the peak observable throughput (the Fig. 8 baseline).
func SimulateUDP(p PathParams, targetMbps, durationS float64) Result {
	if durationS <= 0 {
		durationS = 15
	}
	rate := math.Min(targetMbps, p.CapacityMbps)
	if rate < 0 {
		rate = 0
	}
	delivered := rate * (1 - p.LossRate)
	n := int(math.Ceil(durationS))
	r := Result{MeanMbps: delivered, SteadyMbps: delivered,
		PerSecondMbps: make([]float64, n)}
	for i := range r.PerSecondMbps {
		r.PerSecondMbps[i] = delivered
	}
	r.Bytes = delivered * 1e6 / 8 * durationS
	return r
}

// TransferTime returns the time (seconds) to fetch `bytes` over a fresh TCP
// connection: one RTT of handshake plus slow-start doubling from initCwnd
// into a capacity-limited steady state. This closed-form ladder is the
// object-fetch primitive of the web page-load model (§6).
func TransferTime(bytes float64, rttS, capacityMbps float64, initCwnd float64) float64 {
	if bytes <= 0 {
		return rttS // handshake only
	}
	if initCwnd <= 0 {
		initCwnd = 10
	}
	capBps := capacityMbps * 1e6 / 8
	if capBps <= 0 {
		return math.Inf(1)
	}
	t := rttS // connection setup
	remaining := bytes
	wnd := initCwnd * MSSBytes
	for remaining > 0 {
		perRTT := math.Min(wnd, capBps*rttS)
		if remaining <= perRTT {
			// Final (partial) window drains at link rate.
			t += remaining / capBps
			if t < rttS { // at least the request-response RTT
				t = rttS
			}
			remaining = 0
			break
		}
		remaining -= perRTT
		t += rttS
		wnd *= 2
	}
	return t
}
