package transport

import (
	"math"
	"math/rand"
)

// SimulateBBR models a BBR-style congestion controller over the same fluid
// path as SimulateTCP. BBR paces at its bottleneck-bandwidth estimate
// instead of reacting to loss, which is exactly the remedy §3.2 gestures at
// when it notes that "the impact of [RTT and slight loss] coupled with
// existing TCP mechanisms gets amplified at ultra-high bandwidth levels":
// random and radio-event losses do not collapse BBR's rate, so a single
// connection tracks the link far better than CUBIC at every distance.
//
// The model captures BBR v1's control loop at RTT granularity:
//
//   - STARTUP doubles the pacing rate each RTT until the delivery-rate
//     estimate stops growing;
//   - steady state paces at the windowed-max delivery rate, with the
//     8-phase gain cycle (1.25 probe, 0.75 drain, 6x cruise);
//   - a min_rtt expiry triggers a brief PROBE_RTT dip every ~10 s;
//   - the send buffer still caps the inflight window (wmem applies to any
//     sender-side socket, whatever the congestion control).
func SimulateBBR(p PathParams, o TCPOptions, rng *rand.Rand) Result {
	o = o.withDefaults()
	rtt := p.rtt()
	capPkts := p.CapacityMbps * 1e6 * rtt / 8 / MSSBytes
	if capPkts < 1 {
		capPkts = 1
	}
	wndCap := o.WmemBytes * wndFraction / MSSBytes

	// Per-flow state: pacing rate in packets/RTT, windowed max delivery.
	type bbrFlow struct {
		paceRate   float64 // pkts per RTT
		maxBtlBw   float64 // windowed max of delivered pkts/RTT
		btlBwAge   float64 // seconds since maxBtlBw was raised
		startup    bool
		phase      int     // gain-cycle phase
		probeRTTAt float64 // next PROBE_RTT time
	}
	flows := make([]bbrFlow, o.Flows)
	for i := range flows {
		flows[i] = bbrFlow{paceRate: initCwnd, startup: true, probeRTTAt: 10,
			phase: i % 8}
	}
	gains := [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

	var res Result
	nSec := int(math.Ceil(o.DurationS))
	res.PerSecondMbps = make([]float64, nSec)
	desired := make([]float64, len(flows)) // every RTT overwrites every entry
	spans := newSpans(rtt, nSec)
	now := 0.0
	for now < o.DurationS {
		demand := 0.0
		for i := range flows {
			f := &flows[i]
			gain := 1.0
			if f.startup {
				gain = 2.0
			} else {
				gain = gains[f.phase]
			}
			want := f.paceRate * gain
			if now >= f.probeRTTAt && now < f.probeRTTAt+4*rtt {
				want = math.Max(4, 0.1*f.paceRate) // PROBE_RTT dip
			} else if now >= f.probeRTTAt+4*rtt {
				f.probeRTTAt += 10
			}
			if want > wndCap {
				want = wndCap
			}
			desired[i] = want
			demand += want
		}
		share := 1.0
		if demand > capPkts {
			share = capPkts / demand
		}
		spans = splitRTT(spans, now, rtt, o.DurationS, nSec)
		for i := range flows {
			f := &flows[i]
			delivered := desired[i] * share
			bytes := delivered * MSSBytes
			res.Bytes += bytes
			addSpans(res.PerSecondMbps, spans, bytes)

			// Random/radio losses reduce delivered slightly but do not
			// change the pacing decision (BBR is not loss-based).
			if rng.Float64() < p.LossEventRate*rtt {
				res.LossEvents++
			}

			if delivered > f.maxBtlBw {
				f.maxBtlBw = delivered
				f.btlBwAge = 0
			} else {
				f.btlBwAge += rtt
				// The bandwidth filter forgets stale maxima (10 RTT window).
				if f.btlBwAge > 10*rtt {
					f.maxBtlBw = math.Max(delivered, f.maxBtlBw*0.98)
				}
			}
			if f.startup && delivered < f.paceRate*1.25 {
				f.startup = false // delivery stopped growing: pipe found
			}
			f.paceRate = math.Max(4, f.maxBtlBw)
			f.phase = (f.phase + 1) % 8
		}
		now += rtt
	}
	res.finish(o.DurationS)
	return res
}
