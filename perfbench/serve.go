package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"time"

	"fivegsim/internal/serve"
	"fivegsim/internal/trace"
)

// opHeader carries "<op> <client span id>" on traced requests, so the
// server-side handler span and the client span of one request share an op
// id.
const opHeader = "X-Perfbench-Op"

// numTemplates is the number of scenario shapes served. It is odd so that
// the median and p90 of a mix of equally many requests of each shape fall
// inside one shape's latencies rather than on the gap between two.
const numTemplates = 5

// templateNames label the templates in the report.
var templateNames = [numTemplates]string{"fleet-table", "fleet-jsonl", "fleet-colf", "battery-fig18c", "battery-metrics"}

// scenarioFor builds the scenario of one template. Together the templates
// cover the table, JSONL trace, colf trace and metrics artifacts; the
// fig18c battery subset draws fresh traces through trace.DefaultCache, so
// fresh seeds grow that cache.
func scenarioFor(tpl int, seed int64, fleetUEs int) serve.Scenario {
	s := seed
	fleetSc := func(mix string) *serve.FleetScenario {
		return &serve.FleetScenario{UEs: fleetUEs, Mix: mix}
	}
	switch tpl {
	case 0:
		return serve.Scenario{Kind: "fleet", Seed: &s, Fleet: fleetSc("mixed")}
	case 1:
		return serve.Scenario{Kind: "fleet", Seed: &s, Artifact: serve.ArtifactTrace, Fleet: fleetSc("low-band")}
	case 2:
		return serve.Scenario{Kind: "fleet", Seed: &s, Artifact: serve.ArtifactTrace, TraceFormat: "colf", Fleet: fleetSc("mmwave")}
	case 3:
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Experiments: []string{"fig18c"}}
	default:
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Artifact: serve.ArtifactMetrics,
			Experiments: []string{"table7"}}
	}
}

// reqKey is one scenario with its request body and canonical key.
type reqKey struct {
	sc   serve.Scenario
	body []byte
	name string
	tpl  int
}

func newKey(tpl int, seed int64, fleetUEs int) (reqKey, error) {
	sc := scenarioFor(tpl, seed, fleetUEs)
	if err := sc.Validate(); err != nil {
		return reqKey{}, fmt.Errorf("template %d: %w", tpl, err)
	}
	body, err := json.Marshal(&sc)
	if err != nil {
		return reqKey{}, err
	}
	return reqKey{sc: sc, body: body, name: sc.CanonicalKey(), tpl: tpl}, nil
}

// splitmix advances a splitmix64 stream.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	x := *s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream returns a splitmix state derived from the workload seed and a
// salt.
func stream(seed int64, salt uint64) uint64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 ^ salt
	splitmix(&s)
	return s
}

// keySeed derives the scenario seed of (workload seed, round, index).
// Seeds are distinct across rounds >= -warmRounds and indices < 1024 by
// construction, so every serve-miss key is new.
func keySeed(seed int64, round, index int) int64 {
	s := stream(seed, 0x5e7e)
	base := int64(splitmix(&s) >> 24)
	return base + int64(round+warmRounds)*1024 + int64(index)
}

// warmRounds is the number of untimed serve-miss rounds in each set-up.
const warmRounds = 3

// permute returns a seeded permutation of [0, n).
func permute(n int, s *uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix(s) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// roundKeys returns one round's fresh scenarios, per client: every
// template once, in a seeded order.
func roundKeys(h *harness, round int) ([][]reqKey, error) {
	per := make([][]reqKey, h.size.serveClients)
	for c := range per {
		s := stream(h.seed, uint64(round+warmRounds)<<16|uint64(c))
		for _, tpl := range permute(numTemplates, &s) {
			k, err := newKey(tpl, keySeed(h.seed, round, c*numTemplates+tpl), h.size.serveFleetUEs)
			if err != nil {
				return nil, err
			}
			per[c] = append(per[c], k)
		}
	}
	return per, nil
}

// roundsKeys concatenates the keys of rounds [from, to), per client.
func roundsKeys(h *harness, from, to int) ([][]reqKey, error) {
	per := make([][]reqKey, h.size.serveClients)
	for round := from; round < to; round++ {
		ks, err := roundKeys(h, round)
		if err != nil {
			return nil, err
		}
		for c := range ks {
			per[c] = append(per[c], ks[c]...)
		}
	}
	return per, nil
}

// rig is one in-process fgservd: serve.New's handler behind the
// benchmark's own http.Server (so Handler() can be wrapped) and one client
// per closed loop, each with one keep-alive connection.
type rig struct {
	cancel  context.CancelFunc
	done    chan error
	base    string
	clients []*client
}

// startRig listens on 127.0.0.1:0 and serves until stop.
func startRig(h *harness) (*rig, error) {
	srv := serve.New(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if h.rec != nil {
		handler = spanHandler(h.rec, handler)
	}
	if h.faults.handler != nil {
		handler = h.faults.handler(handler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rg := &rig{cancel: cancel, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { rg.done <- serveHTTP(ctx, ln, handler) }()
	for i := 0; i < h.size.serveClients; i++ {
		rg.clients = append(rg.clients, newClient(h, rg.base))
	}
	return rg, nil
}

// serveHTTP serves handler on ln until ctx is done, then drains in-flight
// requests and returns — the lifecycle of (*serve.Server).Serve.
func serveHTTP(ctx context.Context, ln net.Listener, handler http.Handler) error {
	hs := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		done <- hs.Shutdown(context.Background())
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// stop cancels the server's context, waits until it has returned, and
// closes the clients' idle connections.
func (rg *rig) stop() error {
	rg.cancel()
	err := <-rg.done
	for _, c := range rg.clients {
		c.tr.CloseIdleConnections()
	}
	return err
}

// cachedEntries reads the artifact cache size from GET /v1/healthz.
func (rg *rig) cachedEntries() (int, error) {
	resp, err := rg.clients[0].hc.Get(rg.base + "/v1/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var hz struct {
		Cached int `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return hz.Cached, nil
}

// spanHandler records a span around the service handler for every request
// that carries opHeader.
func spanHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int64
		if _, err := fmt.Sscan(r.Header.Get(opHeader), &op, &parent); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.newID()
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add(id, parent, op, "serve.Handler", start, time.Now())
	})
}

// client is one closed-loop client with one keep-alive connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(h *harness, base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = tr
	if h.faults.transport != nil {
		rt = h.faults.transport(rt)
	}
	return &client{tr: tr, hc: &http.Client{Transport: rt}, url: base + "/v1/run"}
}

// reply is the verified outcome of one request.
type reply struct {
	key      int
	status   int
	size     int
	complete bool
	match    bool // the body equals the reference; set by the caller
	cache    string
	err      error
	latency  time.Duration
	ttfb     time.Duration
	traced   bool
	op       int64
	body     []byte // kept only until verified
}

// post sends one scenario and reads the whole response. Latency runs from
// just before the request is written to the end of the body, trailer
// included. A non-nil rec traces the request.
func (c *client) post(rec *recorder, op int64, body []byte) reply {
	r := reply{op: op, traced: rec != nil}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	var firstByte time.Time
	if rec != nil {
		id = rec.newID()
		req.Header.Set(opHeader, strconv.FormatInt(op, 10)+" "+strconv.FormatInt(id, 10))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	data, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	end := time.Now()
	r.latency = end.Sub(start)
	if rec != nil {
		rec.add(id, 0, op, "serve.request", start, end)
		if !firstByte.IsZero() {
			r.ttfb = firstByte.Sub(start)
		}
	}
	r.status = resp.StatusCode
	r.body = data
	r.size = len(data)
	r.cache = resp.Header.Get(serve.HeaderCache)
	if resp.StatusCode != http.StatusOK {
		return r
	}
	switch {
	case rerr != nil || cerr != nil:
		// A body cut short is incomplete, not a transport failure.
	case resp.ContentLength >= 0:
		r.complete = int64(len(data)) == resp.ContentLength
	default:
		r.complete = resp.Trailer.Get(serve.TrailerComplete) == "1"
	}
	return r
}

// serveCounters classify failed requests.
type serveCounters struct {
	rejected   int // 429 or 503
	incomplete int // missing trailer or short body
	mismatched int // bytes differ from the reference
}

// classify counts one request into out and reports whether it succeeded.
func classify(out *outcome, what string, r reply) bool {
	switch {
	case r.err != nil:
		out.fail("%s: %v", what, r.err)
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		out.counters.rejected++
		out.fail("%s: rejected with status %d", what, r.status)
	case r.status != http.StatusOK:
		out.fail("%s: status %d", what, r.status)
	case !r.complete:
		out.counters.incomplete++
		out.fail("%s: incomplete body (%d bytes)", what, r.size)
	case !r.match:
		out.counters.mismatched++
		out.fail("%s: body differs from the reference", what)
	default:
		return true
	}
	return false
}

// request is one planned request.
type request struct {
	op  int64
	key int
}

// send runs one closed loop per client over its planned requests and
// returns the replies in plan order. With a recorder, even ops are traced.
func (rg *rig) send(rec *recorder, keys []reqKey, plan [][]request) [][]reply {
	out := make([][]reply, len(plan))
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := make([]reply, len(plan[c]))
			for i, rq := range plan[c] {
				var r *recorder
				if rec != nil && rq.op%2 == 0 {
					r = rec
				}
				res[i] = rg.clients[c].post(r, rq.op, keys[rq.key].body)
				res[i].key = rq.key
			}
			out[c] = res
		}(c)
	}
	wg.Wait()
	return out
}

// flatten lays per-client keys out as one slice plus the matching plan.
func flatten(per [][]reqKey, firstOp int64) ([]reqKey, [][]request) {
	var keys []reqKey
	plan := make([][]request, len(per))
	op := firstOp
	for c, ks := range per {
		for _, k := range ks {
			plan[c] = append(plan[c], request{op: op, key: len(keys)})
			keys = append(keys, k)
			op++
		}
	}
	return keys, plan
}

// reference computes a key's artifact with serve.RunScenario, no HTTP.
func reference(k *reqKey) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	start := time.Now()
	err := serve.RunScenario(context.Background(), &k.sc, &buf)
	return buf.Bytes(), time.Since(start), err
}

// serveSetups starts a fresh server on an empty trace cache and sends the
// warm-up keys through it, h.setups times; the last server stays up. The
// first set-up is timed from process start.
func serveSetups(h *harness, out *outcome, keys []reqKey, plan [][]request) (*rig, [][]reply, error) {
	var rg *rig
	var replies [][]reply
	for k := 0; k < h.setups; k++ {
		if rg != nil {
			if err := rg.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		t0 := time.Now()
		if k == 0 {
			t0 = h.start
		}
		resetTraceCache()
		var err error
		if rg, err = startRig(h); err != nil {
			return nil, nil, err
		}
		replies = rg.send(nil, keys, plan)
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		for _, rs := range replies {
			for _, r := range rs {
				if r.err != nil || r.status != http.StatusOK || !r.complete {
					out.checkFail("set-up %d: %s: status %d, complete %t, err %v",
						k, keys[r.key].name, r.status, r.complete, r.err)
				}
			}
		}
	}
	return rg, replies, nil
}

// handlerSplit pairs traced requests (their ops and client latencies in
// ms) with their handler spans, and returns per request the handler time,
// the client-side rest, and that rest's share of the latency.
func handlerSplit(rec *recorder, ops []int64, latMs []float64) (handler, client, share []float64) {
	spans := rec.byOp("serve.Handler")
	for i, op := range ops {
		d, ok := spans[op]
		if !ok {
			continue
		}
		hm := ms(d)
		handler = append(handler, hm)
		client = append(client, latMs[i]-hm)
		share = append(share, 1-hm/latMs[i])
	}
	return handler, client, share
}

// runServeMiss is the serve-miss workload: nproc closed-loop clients POST
// fresh scenarios, so every request is generated, streamed and cached. The
// number of rounds is fixed by -seconds, never by speed.
func runServeMiss(h *harness) (*outcome, error) {
	out := &outcome{opOf: "miss"}
	warm, err := roundsKeys(h, -warmRounds, 0)
	if err != nil {
		return nil, err
	}
	wkeys, wplan := flatten(warm, -1<<40)
	rg, _, err := serveSetups(h, out, wkeys, wplan)
	if err != nil {
		return nil, err
	}
	out.addr = strings.TrimPrefix(rg.base, "http://")

	var (
		traced, untraced []float64
		tracedOps        []int64
		byTpl            [numTemplates][]float64
		gen, over, ttfb  []float64
		bytesRead        int64
		deltas           []runtimeDelta
		gens             []float64
		entries          int
		heapMax          float64
	)
	nextOp := int64(0)
	gens0 := trace.DefaultCache.Generations()
	for round := 0; round < h.size.missRounds; round++ {
		per, err := roundKeys(h, round)
		if err != nil {
			_ = rg.stop()
			return nil, err
		}
		keys, plan := flatten(per, nextOp)
		nextOp += int64(len(keys))
		var u0 usage
		if h.rec != nil {
			u0 = snapshot()
		}
		replies := rg.send(h.rec, keys, plan)
		if h.rec != nil {
			u1 := snapshot()
			deltas = append(deltas, perOp(u0, u1, len(keys)))
			gens = append(gens, float64(u1.gens-u0.gens))
		}
		// Untimed: the cache size, then the verification pass.
		if entries, err = rg.cachedEntries(); err != nil {
			out.checkFail("round %d healthz: %v", round, err)
		}
		for _, rs := range replies {
			for _, r := range rs {
				k := &keys[r.key]
				out.attempted++
				ref, g, err := reference(k)
				if err != nil {
					out.fail("%s: reference run: %v", k.name, err)
					continue
				}
				r.match = bytes.Equal(r.body, ref)
				if !classify(out, k.name, r) {
					continue
				}
				if r.cache != "miss" {
					out.checkFail("%s: fresh key answered from cache (%q)", k.name, r.cache)
				}
				lat := ms(r.latency)
				out.opMs = append(out.opMs, lat)
				byTpl[k.tpl] = append(byTpl[k.tpl], lat)
				gen = append(gen, ms(g))
				over = append(over, lat-ms(g))
				bytesRead += int64(r.size)
				if r.traced {
					traced = append(traced, lat)
					tracedOps = append(tracedOps, r.op)
					ttfb = append(ttfb, ms(r.ttfb))
				} else {
					untraced = append(untraced, lat)
				}
			}
		}
		if h.rec != nil {
			if heap := heapLiveMB(); heap > heapMax {
				heapMax = heap
			}
		}
	}
	if err := rg.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	ok := len(out.opMs)
	sorted := sortedCopy(out.opMs)
	out.named = []figure{
		{name: "serve_miss_ms_p50", value: quantile(sorted, 0.5), unit: "ms", n: ok},
		{name: "serve_miss_ms_p90", value: quantile(sorted, 0.9), unit: "ms", n: ok},
		{name: "fresh_keys", value: float64(nextOp), unit: "count", n: h.size.missRounds},
		{name: "trace_generations", value: float64(trace.DefaultCache.Generations() - gens0), unit: "count", n: h.size.missRounds},
		{name: "fail_ratio", value: out.failRatio(), unit: "fraction", n: out.attempted},
	}
	for tpl, xs := range byTpl {
		out.named = append(out.named, figure{name: "miss_ms_p50." + templateNames[tpl], value: median(xs), unit: "ms", n: len(xs)})
	}
	if h.rec == nil {
		return out, nil
	}
	l := newLayers()
	handler, _, unacc := handlerSplit(h.rec, tracedOps, traced)
	l.median("serve.generate_ms_p50", gen)
	l.median("serve.miss_overhead_ms_p50", over)
	l.median("serve.miss_ttfb_ms_p50", ttfb)
	l.median("serve.miss_handler_ms_p50", handler)
	l.set("serve.cache_entries", float64(entries), h.size.missRounds)
	if ok > 0 {
		l.set("serve.miss_kb", float64(bytesRead)/1e3/float64(ok), ok)
	}
	setCounters(l, out)
	l.runtimeMedians(deltas)
	l.median("trace.generations", gens)
	l.set("runtime.heap_live_mb", heapMax, h.size.missRounds)
	l.set("harness.trace_overhead", overhead(traced, untraced), len(traced)+len(untraced))
	l.median("harness.unaccounted_share", unacc)
	out.layers = l
	return out, nil
}

// runServeHit is the serve-hit workload: a fixed key set is generated once
// during set-up, then nproc closed-loop clients re-request it in seeded
// orders, so every timed request replays from the artifact cache. The
// request count is fixed by -seconds, never by speed, and per-request
// state is a preallocated latency slot, so memory does not grow with speed
// either.
func runServeHit(h *harness) (*outcome, error) {
	out := &outcome{opOf: "hit"}
	per, err := roundsKeys(h, 0, h.size.hitKeySets)
	if err != nil {
		return nil, err
	}
	keys, fill := flatten(per, -1<<40)
	rg, replies, err := serveSetups(h, out, keys, fill)
	if err != nil {
		return nil, err
	}
	out.addr = strings.TrimPrefix(rg.base, "http://")
	// Untimed: the fill must equal serve.RunScenario's bytes; it is then
	// the reference every replay must match.
	refs := make([][]byte, len(keys))
	for _, rs := range replies {
		for _, r := range rs {
			ref, _, err := reference(&keys[r.key])
			if err != nil {
				out.checkFail("%s: reference run: %v", keys[r.key].name, err)
				continue
			}
			if !bytes.Equal(r.body, ref) {
				out.checkFail("%s: generated bytes differ from serve.RunScenario's", keys[r.key].name)
			}
			refs[r.key] = ref
		}
	}
	replies = nil

	var u0 usage
	if h.rec != nil {
		u0 = snapshot()
	}
	t0 := time.Now()
	tallies := rg.replay(h, keys, refs)
	elapsed := time.Since(t0)
	var (
		deltas []runtimeDelta
		gens   []float64
		heap   float64
	)
	if h.rec != nil {
		u1 := snapshot()
		deltas = append(deltas, perOp(u0, u1, h.size.hitRequests))
		gens = append(gens, float64(u1.gens-u0.gens))
	}
	entries, err := rg.cachedEntries()
	if err != nil {
		out.checkFail("healthz: %v", err)
	}
	if err := rg.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	if h.rec != nil {
		heap = heapLiveMB()
	}

	var (
		traced, untraced []float64
		hits             int
		bytesRead        int64
		tracedOps        []int64
	)
	for _, t := range tallies {
		out.merge(t.out)
		hits += t.hits
		bytesRead += t.bytes
		traced = append(traced, t.tracedMs...)
		untraced = append(untraced, t.untracedMs...)
		tracedOps = append(tracedOps, t.tracedOps...)
	}
	ok := len(out.opMs)
	sorted := sortedCopy(out.opMs)
	out.named = []figure{
		{name: "serve_hit_ms_p50", value: quantile(sorted, 0.5), unit: "ms", n: ok},
		{name: "serve_hit_ms_p90", value: quantile(sorted, 0.9), unit: "ms", n: ok},
		{name: "requests_per_s", value: float64(out.attempted) / elapsed.Seconds(), unit: "1/s", n: out.attempted},
		{name: "keys", value: float64(len(keys)), unit: "count", n: 1},
		{name: "fail_ratio", value: out.failRatio(), unit: "fraction", n: out.attempted},
	}
	if h.rec == nil {
		return out, nil
	}
	l := newLayers()
	handler, client, unacc := handlerSplit(h.rec, tracedOps, traced)
	l.median("serve.hit_handler_ms_p50", handler)
	l.median("serve.hit_client_ms_p50", client)
	if out.attempted > 0 {
		l.set("serve.cache_hit_ratio", float64(hits)/float64(out.attempted), out.attempted)
	}
	l.set("serve.cache_entries", float64(entries), 1)
	if ok > 0 {
		l.set("serve.hit_kb", float64(bytesRead)/1e3/float64(ok), ok)
	}
	setCounters(l, out)
	l.runtimeMedians(deltas)
	l.median("trace.generations", gens)
	l.set("runtime.heap_live_mb", heap, 1)
	l.set("harness.trace_overhead", overhead(traced, untraced), len(traced)+len(untraced))
	l.median("harness.unaccounted_share", unacc)
	out.layers = l
	return out, nil
}

// hitTally is one replay client's share of the results. Only successful
// requests' latencies and sizes are kept; the latency slices are sized up
// front.
type hitTally struct {
	out        outcome
	hits       int
	bytes      int64
	tracedMs   []float64
	untracedMs []float64
	tracedOps  []int64
}

// replay runs one closed loop per client for its share of the fixed
// request count. Each client walks the keys in a fresh seeded order per
// pass and verifies every reply against its reference as it goes.
func (rg *rig) replay(h *harness, keys []reqKey, refs [][]byte) []*hitTally {
	out := make([]*hitTally, len(rg.clients))
	var wg sync.WaitGroup
	for c := range rg.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := h.size.hitRequests / len(rg.clients)
			if c < h.size.hitRequests%len(rg.clients) {
				n++
			}
			t := &hitTally{out: outcome{opMs: make([]float64, 0, n)}}
			if h.rec != nil {
				t.tracedMs = make([]float64, 0, n/2+1)
				t.tracedOps = make([]int64, 0, n/2+1)
				t.untracedMs = make([]float64, 0, n/2+1)
			}
			s := stream(h.seed, 0xb17<<16|uint64(c))
			var order []int
			for i := 0; i < n; i++ {
				if i%len(keys) == 0 {
					order = permute(len(keys), &s)
				}
				key := order[i%len(keys)]
				op := int64(c)<<32 | int64(i)
				var rec *recorder
				if h.rec != nil && i%2 == 0 {
					rec = h.rec
				}
				r := rg.clients[c].post(rec, op, keys[key].body)
				r.match = bytes.Equal(r.body, refs[key])
				t.out.attempted++
				if !classify(&t.out, keys[key].name, r) {
					continue
				}
				lat := ms(r.latency)
				t.out.opMs = append(t.out.opMs, lat)
				t.bytes += int64(r.size)
				if r.cache == "hit" {
					t.hits++
				}
				switch {
				case h.rec == nil:
				case rec != nil:
					t.tracedMs = append(t.tracedMs, lat)
					t.tracedOps = append(t.tracedOps, op)
				default:
					t.untracedMs = append(t.untracedMs, lat)
				}
			}
			out[c] = t
		}(c)
	}
	wg.Wait()
	return out
}

// setCounters reports the serve failure counters.
func setCounters(l *layers, out *outcome) {
	l.set("serve.rejected", float64(out.counters.rejected), out.attempted)
	l.set("serve.incomplete", float64(out.counters.incomplete), out.attempted)
	l.set("serve.mismatched", float64(out.counters.mismatched), out.attempted)
}
