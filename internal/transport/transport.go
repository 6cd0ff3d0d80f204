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

func (p PathParams) bdpPackets() float64 {
	return p.CapacityMbps * 1e6 * p.RTTSeconds / 8 / MSSBytes
}

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
func SimulateTCP(p PathParams, o TCPOptions, rng *rand.Rand) Result {
	o = o.withDefaults()
	rtt := p.RTTSeconds
	if rtt <= 0 {
		rtt = 0.001
	}
	capPkts := p.CapacityMbps * 1e6 * rtt / 8 / MSSBytes // pkts the link drains per RTT
	if capPkts < 1 {
		capPkts = 1
	}
	wndCap := o.WmemBytes * wndFraction / MSSBytes // send-buffer window limit
	flows := make([]cubicFlow, o.Flows)
	for i := range flows {
		flows[i] = cubicFlow{cwnd: initCwnd, ssthresh: math.Inf(1), inSlowStrt: true}
	}

	var res Result
	nSec := int(math.Ceil(o.DurationS))
	res.PerSecondMbps = make([]float64, nSec)
	// log(1-LossRate), hoisted so the per-flow survival probability is one
	// Exp instead of a Pow every RTT.
	logKeep := 0.0
	if p.LossRate > 0 {
		logKeep = math.Log1p(-p.LossRate)
	}
	desired := make([]float64, len(flows))
	// Observability handles, hoisted so the per-RTT loop pays one bool
	// check when disabled and no map lookups when enabled.
	obsOn := o.Obs.Enabled()
	var cwndHist *obs.Histogram
	if obsOn {
		cwndHist = o.Obs.Meter().Hist("transport.cwnd_pkts", cwndBounds)
	}
	now := 0.0
	for now < o.DurationS {
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
		congested := demand > capPkts*(1+queueFactor)
		for i := range flows {
			sent := desired[i] * share
			bytes := sent * MSSBytes
			res.Bytes += bytes
			// Attribute bytes to 1-second buckets (may straddle two).
			attribute(res.PerSecondMbps, now, rtt, bytes, o.DurationS)

			f := &flows[i]
			if obsOn {
				cwndHist.Observe(f.cwnd)
			}
			// Loss: random per-packet + time-driven radio events +
			// proportional drop-tail overflow when the aggregate exceeds
			// link + queue.
			lossP := 0.0
			if p.LossRate > 0 {
				lossP = 1 - math.Exp(logKeep*sent)
			}
			// Radio loss episodes only cost a window reduction when the
			// pipe is actually full; a window-limited flow rides out a
			// short capacity dip with its (empty) queue headroom.
			util := demand / capPkts
			if util > 1 {
				util = 1
			}
			lossP += p.LossEventRate * rtt * util
			if congested {
				lossP += (demand - capPkts*(1+queueFactor)) / demand
			}
			lost := rng.Float64() < lossP
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
				f.cwnd = math.Min(f.cwnd*2, wndCap*1.05)
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
				f.cwnd = math.Min(target, f.cwnd*1.5) // bound per-RTT jump
			}
			if f.cwnd > wndCap*1.05 {
				f.cwnd = wndCap * 1.05
			}
		}
		now += rtt
	}
	total := 0.0
	for _, v := range res.PerSecondMbps {
		total += v
	}
	res.MeanMbps = total / o.DurationS
	half := res.PerSecondMbps[nSec/2:]
	s := 0.0
	for _, v := range half {
		s += v
	}
	if len(half) > 0 {
		res.SteadyMbps = s / float64(len(half))
	}
	return res
}

// attribute spreads `bytes` transferred during [now, now+rtt) into the
// 1-second goodput buckets.
func attribute(buckets []float64, now, rtt, bytes, duration float64) {
	end := now + rtt
	if end > duration {
		end = duration
	}
	for t := now; t < end; {
		sec := int(t)
		if sec >= len(buckets) {
			break
		}
		next := math.Min(float64(sec+1), end)
		frac := (next - t) / rtt
		buckets[sec] += bytes * frac * 8 / 1e6 // Mbps contribution within 1 s
		t = next
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
