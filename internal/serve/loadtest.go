package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fivegsim/internal/stats"
)

// The load-test harness hammers a running fgservd with concurrent scenario
// requests whose arrival times come from the simulator's own arrival model:
// like a fleet campaign's UEs, request i arrives uniformly over the window,
// drawn from a splitmix64 stream derived from (seed, i) — the system
// serving heavy traffic and simulating it with the same machinery.
//
// Every response is verified, not just counted: the first completed body
// for each canonical scenario key becomes the reference, and every later
// response for that key (cache replay or regeneration) must be
// byte-identical — the serving counterpart of the shard-count byte-identity
// gates. Chunked responses must carry the completeness trailer; replays
// must match their Content-Length. Back-pressure rejections (429/503) are
// legitimate outcomes under overload and are reported separately from
// failures.

// LoadOptions parameterises LoadTest. Zero values mean the defaults.
type LoadOptions struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8066".
	BaseURL string
	// Requests is the total request count; 0 means 1000.
	Requests int
	// WindowS is the arrival window in wall seconds; 0 means 2.
	WindowS float64
	// Seed drives the arrival draws and scenario choices; 0 means 1.
	Seed int64
}

// loadConcurrency bounds the harness's in-flight requests.
const loadConcurrency = 256

// LoadReport is the verified outcome of a load run.
type LoadReport struct {
	Requests   int
	OK         int            // 200 with a complete, verified body
	Rejected   int            // 429/503 back-pressure responses
	Truncated  int            // 200 missing the completeness marker or short body
	Mismatched int            // 200 whose bytes differ from the key's reference
	Errors     int            // transport errors, unexpected statuses
	Statuses   map[int]int    // response counts by status code
	Wall       time.Duration  // wall time of the whole run
	Keys       map[string]int // 200-response counts by canonical key
}

// Failed reports whether the run violated the zero-dropped-zero-truncated
// contract. Back-pressure rejections are not failures; silent corruption is.
func (r *LoadReport) Failed() bool {
	return r.Truncated > 0 || r.Mismatched > 0 || r.Errors > 0 || r.OK == 0
}

// String renders the report as an aligned summary.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d requests in %v (%.0f req/s)\n",
		r.Requests, r.Wall.Round(time.Millisecond),
		float64(r.Requests)/r.Wall.Seconds())
	fmt.Fprintf(&b, "  ok %d, rejected %d, truncated %d, mismatched %d, errors %d\n",
		r.OK, r.Rejected, r.Truncated, r.Mismatched, r.Errors)
	codes := make([]int, 0, len(r.Statuses))
	for c := range r.Statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %d: %d\n", c, r.Statuses[c])
	}
	keys := make([]string, 0, len(r.Keys))
	for k := range r.Keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %4dx %s\n", r.Keys[k], k)
	}
	return b.String()
}

// loadScenarios is the request pool: small, fast scenarios covering both
// kinds, all three artifacts, both trace formats, and a few seeds, so a run
// exercises generation, caching, and replay across distinct keys.
func loadScenarios() []Scenario {
	seed := func(v int64) *int64 { return &v }
	pool := []Scenario{
		{Kind: "fleet", Fleet: &FleetScenario{UEs: 97, Mix: "mixed", WindowS: 30, SessionS: 8}},
		{Kind: "fleet", Fleet: &FleetScenario{UEs: 97, Mix: "low-band", WindowS: 30, SessionS: 8}},
		{Kind: "fleet", Seed: seed(7), Fleet: &FleetScenario{UEs: 151, Mix: "mmwave", WindowS: 30, SessionS: 8}},
		{Kind: "fleet", Artifact: ArtifactTrace, Fleet: &FleetScenario{UEs: 97, Mix: "mixed", WindowS: 30, SessionS: 8}},
		{Kind: "fleet", Artifact: ArtifactTrace, TraceFormat: "colf", Fleet: &FleetScenario{UEs: 97, Mix: "mixed", WindowS: 30, SessionS: 8}},
		{Kind: "fleet", Artifact: ArtifactMetrics, Fleet: &FleetScenario{UEs: 97, Mix: "mixed", WindowS: 30, SessionS: 8}},
		{Kind: "battery", Quick: true, Experiments: []string{"table7", "fig11"}},
		{Kind: "battery", Quick: true, Seed: seed(5), Experiments: []string{"fig2", "table8"}},
		{Kind: "battery", Quick: true, Artifact: ArtifactTrace, Experiments: []string{"fig11", "fig2"}},
		{Kind: "battery", Quick: true, Artifact: ArtifactMetrics, Experiments: []string{"table7"}},
	}
	return pool
}

// LoadTest runs the harness against a live daemon and verifies every
// response. The request schedule is deterministic given the options; the
// response interleaving is not (that is the point), but verification holds
// for any interleaving because artifacts are pure functions of their key.
func LoadTest(o LoadOptions) (*LoadReport, error) {
	if o.BaseURL == "" {
		return nil, fmt.Errorf("serve: loadtest needs a BaseURL")
	}
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.WindowS <= 0 {
		o.WindowS = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	scenarios := loadScenarios()
	keys := make([]string, len(scenarios))
	bodies := make([][]byte, len(scenarios))
	for i := range scenarios {
		if err := scenarios[i].Validate(); err != nil {
			return nil, fmt.Errorf("serve: loadtest scenario %d: %w", i, err)
		}
		keys[i] = scenarios[i].CanonicalKey()
		enc, err := json.Marshal(&scenarios[i])
		if err != nil {
			return nil, fmt.Errorf("serve: encoding scenario %d: %w", i, err)
		}
		bodies[i] = enc
	}

	// The arrival schedule: request i picks a scenario and an arrival
	// offset, both from a stream derived from (seed, i) — the fleet
	// derivation rule, applied to HTTP traffic.
	type arrival struct {
		atS float64
		sc  int
	}
	arrivals := make([]arrival, o.Requests)
	for i := range arrivals {
		s := uint64(o.Seed)*0x9e3779b97f4a7c15 + uint64(i)
		s = stats.SplitMix64(&s)
		u := float64(stats.SplitMix64(&s)>>11) / (1 << 53)
		arrivals[i] = arrival{
			atS: u * o.WindowS,
			sc:  int(stats.SplitMix64(&s) % uint64(len(scenarios))),
		}
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].atS < arrivals[b].atS })

	var (
		mu       sync.Mutex
		refs     = make(map[string][]byte)
		report   = &LoadReport{Requests: o.Requests, Statuses: map[int]int{}, Keys: map[string]int{}}
		client   = &http.Client{Timeout: 5 * time.Minute}
		slots    = make(chan struct{}, loadConcurrency)
		wg       sync.WaitGroup
		runStart = time.Now() //fgvet:allow walltime load-generator pacing and wall-clock report, never sim time
	)
	url := strings.TrimSuffix(o.BaseURL, "/") + "/v1/run"
	for _, a := range arrivals {
		// Pace the generator: sleep until this request's arrival time.
		wait := time.Duration(a.atS*float64(time.Second)) - time.Since(runStart) //fgvet:allow walltime load-generator pacing and wall-clock report, never sim time
		if wait > 0 {
			time.Sleep(wait) //fgvet:allow walltime load-generator pacing against real HTTP latency, never sim time
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			defer func() { <-slots }()
			status, body, complete, err := doLoadRequest(client, url, bodies[sc])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				report.Errors++
				return
			}
			report.Statuses[status]++
			switch {
			case status == http.StatusOK:
				report.Keys[keys[sc]]++
				if !complete {
					report.Truncated++
					return
				}
				if ref, ok := refs[keys[sc]]; ok {
					if !bytes.Equal(ref, body) {
						report.Mismatched++
						return
					}
				} else {
					refs[keys[sc]] = body
				}
				report.OK++
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				report.Rejected++
			default:
				report.Errors++
			}
		}(a.sc)
	}
	wg.Wait()
	report.Wall = time.Since(runStart) //fgvet:allow walltime load-generator pacing and wall-clock report, never sim time
	return report, nil
}

// doLoadRequest posts one scenario and fully reads the response, reporting
// whether the body is verifiably complete (trailer for chunked responses,
// exact length for replays; the http client already errors on a short
// Content-Length body).
func doLoadRequest(client *http.Client, url string, body []byte) (status int, data []byte, complete bool, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, data, false, nil
	}
	if resp.ContentLength >= 0 {
		// Replay path: ReadAll succeeding means the full length arrived.
		return resp.StatusCode, data, int64(len(data)) == resp.ContentLength, nil
	}
	return resp.StatusCode, data, resp.Trailer.Get(TrailerComplete) == "1", nil
}
