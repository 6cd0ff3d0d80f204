package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fivegsim/internal/experiments"
)

// tinyHarness shrinks every workload to well under a second.
func tinyHarness(seed int64, traced bool) *harness {
	h := &harness{
		seed:   seed,
		minOps: 2,
		setups: 2,
		start:  time.Now(),
		size: sizes{
			batteryIDs:    []string{"fig11", "fig18c", "table2", "table7"},
			batteryQuick:  true,
			fleetUEs:      300,
			serveClients:  2,
			serveFleetUEs: 150,
			missRounds:    1,
			hitKeySets:    1,
			hitRequests:   40,
		},
	}
	if traced {
		h.rec = newRecorder(h.start)
	}
	return h
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine parses the JSON result line of a report.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

// waitGoroutines waits until the goroutine count is back at base. HTTP
// transports end their connection goroutines asynchronously after a close.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runTiny runs one workload at the tiny size and checks what every run must
// leave behind: no extra goroutine, a closed port, and a result line naming
// every metric of BENCHMARK.json with its unit.
func runTiny(t *testing.T, w workload, h *harness, spec benchmarkSpec) *outcome {
	t.Helper()
	base := runtime.NumGoroutine()
	res, err := runWorkload(w, h)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	waitGoroutines(t, base)
	if res.addr != "" {
		if c, err := net.DialTimeout("tcp", res.addr, time.Second); err == nil {
			_ = c.Close()
			t.Errorf("%s: server port %s still accepts connections", w.name, res.addr)
		}
	}
	var buf bytes.Buffer
	if err := report(&buf, w.name, h, res); err != nil {
		t.Fatal(err)
	}
	r := lastLine(t, buf.String())
	want := spec.EndToEnd
	if h.rec != nil {
		want = spec.PerLayer
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", w.name, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s printed as %+v (present %t), want unit %s", w.name, m.Name, got, ok, m.Unit)
		}
		if h.rec == nil && got.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
		}
	}
	return res
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	for i, m := range spec.EndToEnd {
		if i >= len(endToEndSpecs) || endToEndSpecs[i] != (spec2(m.Name, m.Unit)) {
			t.Errorf("end_to_end[%d] = %s %s has no matching program metric", i, m.Name, m.Unit)
		}
	}
	for i, m := range spec.PerLayer {
		if i >= len(perLayerSpecs) || perLayerSpecs[i] != (spec2(m.Name, m.Unit)) {
			t.Errorf("per_layer[%d] = %s %s has no matching program metric", i, m.Name, m.Unit)
		}
	}
}

func spec2(name, unit string) spec { return spec{name: name, unit: unit} }

// TestWorkloadsTwoSeeds runs every workload untraced under two seeds and
// traced under one.
func TestWorkloadsTwoSeeds(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var digest [2]string
			for i, seed := range []int64{1, 2} {
				res := runTiny(t, w, tinyHarness(seed, false), spec)
				if !res.correct() {
					t.Fatalf("seed %d: verification failed: %v %v", seed, res.failures, res.checkFailures)
				}
				digest[i] = res.digest
			}
			if (w.name == "battery" || w.name == "fleet") && digest[0] == digest[1] {
				t.Errorf("seeds 1 and 2 produced the same artifacts %s: the seed does not reach the program", digest[0])
			}
			res := runTiny(t, w, tinyHarness(1, true), spec)
			if !res.correct() {
				t.Fatalf("traced: verification failed: %v %v", res.failures, res.checkFailures)
			}
			if res.layers.get("harness.trace_overhead").n == 0 {
				t.Errorf("traced run measured no trace overhead")
			}
		})
	}
}

// TestExperimentGroups checks that every experiment falls in one of the
// per-layer groups.
func TestExperimentGroups(t *testing.T) {
	groups, err := experimentGroups()
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, g := range experimentGroupNames {
		known[g] = true
	}
	for _, id := range experiments.IDs() {
		if !known[groups[id]] {
			t.Errorf("experiment %s is in group %q, not one of %v", id, groups[id], experimentGroupNames)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "-1"},
		{"--workload", "fleet", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}

// Fault injection: each fault must land in fail_ratio and, on serve, in the
// matching counter.

// targetBody is the request body of the first timed serve-miss request of
// client 0, which no set-up request shares.
func targetBody(t *testing.T, h *harness) []byte {
	t.Helper()
	per, err := roundKeys(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return per[0][0].body
}

// faultTransport applies fault to the response of every request whose body
// is target.
type faultTransport struct {
	next   http.RoundTripper
	target []byte
	fault  func(*http.Response)
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		return f.next.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := f.next.RoundTrip(req)
	if err == nil && bytes.Equal(body, f.target) {
		f.fault(resp)
	}
	return resp, err
}

// bodyFunc wraps a response body with a read hook.
type bodyFunc struct {
	io.ReadCloser
	read func(p []byte) (int, error)
}

func (b *bodyFunc) Read(p []byte) (int, error) { return b.read(p) }

func flipByte(resp *http.Response) {
	rc := resp.Body
	done := false
	resp.Body = &bodyFunc{ReadCloser: rc, read: func(p []byte) (int, error) {
		n, err := rc.Read(p)
		if n > 0 && !done {
			p[0] ^= 0xff
			done = true
		}
		return n, err
	}}
}

func dropTrailer(resp *http.Response) {
	rc := resp.Body
	resp.Body = &bodyFunc{ReadCloser: rc, read: func(p []byte) (int, error) {
		n, err := rc.Read(p)
		if err == io.EOF {
			resp.Trailer.Del("X-Fgserv-Complete")
		}
		return n, err
	}}
}

func truncate(resp *http.Response) {
	rc := resp.Body
	left := 16
	resp.Body = &bodyFunc{ReadCloser: rc, read: func(p []byte) (int, error) {
		if left == 0 {
			return 0, io.EOF
		}
		if len(p) > left {
			p = p[:left]
		}
		n, err := rc.Read(p)
		left -= n
		return n, err
	}}
}

func TestServeFaultsLand(t *testing.T) {
	spec := loadSpec(t)
	miss, _ := findWorkload("serve-miss")
	cases := []struct {
		name    string
		fault   func(*http.Response)
		counter func(serveCounters) int
	}{
		{"flip-byte", flipByte, func(c serveCounters) int { return c.mismatched }},
		{"drop-trailer", dropTrailer, func(c serveCounters) int { return c.incomplete }},
		{"truncate", truncate, func(c serveCounters) int { return c.incomplete }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := tinyHarness(1, false)
			target := targetBody(t, h)
			h.faults.transport = func(rt http.RoundTripper) http.RoundTripper {
				return &faultTransport{next: rt, target: target, fault: c.fault}
			}
			res := runTiny(t, miss, h, spec)
			if res.failed != 1 || res.correct() || c.counter(res.counters) != 1 {
				t.Errorf("failed %d, correct %t, counters %+v: want exactly one failure, counted", res.failed, res.correct(), res.counters)
			}
		})
	}
	t.Run("handler-503", func(t *testing.T) {
		h := tinyHarness(1, false)
		target := targetBody(t, h)
		h.faults.handler = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if bytes.Equal(body, target) {
					http.Error(w, "injected", http.StatusServiceUnavailable)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				next.ServeHTTP(w, r)
			})
		}
		res := runTiny(t, miss, h, spec)
		if res.failed != 1 || res.correct() || res.counters.rejected != 1 {
			t.Errorf("failed %d, correct %t, counters %+v: want exactly one rejection", res.failed, res.correct(), res.counters)
		}
	})
}

// flipWriter corrupts the first byte written through it.
type flipWriter struct {
	w    io.Writer
	once sync.Once
}

func (f *flipWriter) Write(p []byte) (int, error) {
	q := p
	f.once.Do(func() {
		if len(p) > 0 {
			q = append([]byte(nil), p...)
			q[0] ^= 0xff
		}
	})
	return f.w.Write(q)
}

// panicWriter panics on its first write, as a renderer bug would.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("injected") }

func TestArtifactFaultsLand(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range []string{"battery", "fleet"} {
		// "panic" makes the table writer panic on the op's own goroutine.
		for _, artifact := range []string{"table", "trace", "metrics", "panic"} {
			t.Run(name+"/"+artifact, func(t *testing.T) {
				w, _ := findWorkload(name)
				h := tinyHarness(1, false)
				h.faults.sink = func(op int, a string, sink io.Writer) io.Writer {
					switch {
					case op != 1:
					case artifact == "panic" && a == "table":
						return panicWriter{}
					case a == artifact:
						return &flipWriter{w: sink}
					}
					return sink
				}
				res := runTiny(t, w, h, spec)
				if res.failed != 1 || res.correct() || res.failRatio() != 0.5 {
					t.Errorf("failed %d of %d, correct %t: want op 1 failed", res.failed, res.attempted, res.correct())
				}
			})
		}
	}
}
