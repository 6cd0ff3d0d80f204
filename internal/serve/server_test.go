package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// postScenario posts body to the test server and returns the response plus
// the fully-read body (trailers are only populated after the body is read).
func postScenario(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSubmitAndReplay: a generated response streams chunked with the
// completeness trailer; the repeat request replays from the cache with an
// exact Content-Length and byte-identical body.
func TestSubmitAndReplay(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"kind":"battery","quick":true,"experiments":["table7"]}`

	resp, first := postScenario(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Errorf("first request %s = %q, want miss", HeaderCache, got)
	}
	if got := resp.Trailer.Get(TrailerComplete); got != "1" {
		t.Errorf("first request trailer %s = %q, want 1", TrailerComplete, got)
	}
	if len(first) == 0 {
		t.Fatal("empty battery table")
	}

	resp2, second := postScenario(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(HeaderCache); got != "hit" {
		t.Errorf("replay %s = %q, want hit", HeaderCache, got)
	}
	if resp2.ContentLength != int64(len(second)) {
		t.Errorf("replay Content-Length = %d, body %d bytes", resp2.ContentLength, len(second))
	}
	if !bytes.Equal(first, second) {
		t.Error("replayed bytes differ from the generated response")
	}
	if k1, k2 := resp.Header.Get(HeaderKey), resp2.Header.Get(HeaderKey); k1 == "" || k1 != k2 {
		t.Errorf("canonical keys differ: %q vs %q", k1, k2)
	}
}

// TestEquivalentScenariosShareCache: a request spelling out the defaults
// replays the artifact generated for the terse spelling.
func TestEquivalentScenariosShareCache(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, a := postScenario(t, ts.URL,
		`{"kind":"fleet","fleet":{"ues":23,"mix":"mixed","window_s":20,"session_s":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, a)
	}
	resp2, b := postScenario(t, ts.URL,
		`{"kind":"fleet","seed":1,"artifact":"table","fleet":{"ues":23,"shards":3,"mix":"mixed","window_s":20,"session_s":8}}`)
	if got := resp2.Header.Get(HeaderCache); got != "hit" {
		t.Errorf("normalized scenario %s = %q, want hit", HeaderCache, got)
	}
	if !bytes.Equal(a, b) {
		t.Error("equivalent scenarios returned different bytes")
	}
}

// TestBadRequests: malformed JSON, unknown fields, and invalid scenarios
// get 400 with a JSON error body.
func TestBadRequests(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{not json`,
		`{"kind":"battery","quik":true}`,
		`{"kind":"fleet","fleet":{"ues":0}}`,
		`{"kind":"battery","experiments":["nope"]}`,
	} {
		resp, data := postScenario(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400", body, resp.StatusCode)
		}
		if !bytes.Contains(data, []byte("error")) {
			t.Errorf("body %s: error response %q has no error field", body, data)
		}
	}
}

// TestQueueFull: with one worker and a one-deep queue, a third concurrent
// scenario is rejected with 429 — explicit back-pressure, not a pile-up.
func TestQueueFull(t *testing.T) {
	srv := New(Options{Workers: 1, Queue: 1})
	block := make(chan struct{})
	started := make(chan string, 8)
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		started <- sc.Experiments[0]
		select {
		case <-block:
		case <-ctx.Done():
			return ctx.Err()
		}
		_, err := io.WriteString(w, "artifact for "+sc.Experiments[0]+"\n")
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := func(id string) string {
		return fmt.Sprintf(`{"kind":"battery","experiments":[%q]}`, id)
	}
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func(id string) {
		resp, data := postScenario(t, ts.URL, body(id))
		results <- result{resp.StatusCode, data}
	}
	// First request occupies the worker slot (runScenario started), second
	// occupies the queue slot waiting for the worker.
	go post("table7")
	<-started
	go post("fig11")
	waitQueued := func() {
		for i := 0; i < 200; i++ {
			if len(srv.queue) == 1 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Error("second request never occupied the queue slot")
	}
	waitQueued()

	// Third distinct scenario: queue full, immediate 429.
	resp, data := postScenario(t, ts.URL, body("fig2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body: %s)", resp.StatusCode, data)
	}

	// Unblock; both held requests must complete with their artifacts.
	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("held request status = %d, want 200", r.status)
		}
		if !bytes.Contains(r.body, []byte("artifact for ")) {
			t.Errorf("held request body = %q", r.body)
		}
	}
}

// TestCancelMidRun: when the client disconnects mid-generation the run is
// canceled, the cache entry is abandoned, and the next request regenerates
// the full artifact.
func TestCancelMidRun(t *testing.T) {
	srv := New(Options{})
	reached := make(chan struct{}, 4)
	var hang atomic.Bool
	hang.Store(true)
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		if !hang.Load() {
			_, err := io.WriteString(w, "complete artifact\n")
			return err
		}
		if _, err := io.WriteString(w, "partial chunk\n"); err != nil {
			return err
		}
		reached <- struct{}{}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
		}
		_, err := io.WriteString(w, "final chunk\n")
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"kind":"battery","experiments":["table7"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	cancel() // client walks away mid-stream
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("canceled request read to EOF without error")
	}
	_ = resp.Body.Close()

	// The abandoned key must regenerate, fully, for the next client.
	hang.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp2, data := postScenario(t, ts.URL, `{"kind":"battery","experiments":["table7"]}`)
		if resp2.StatusCode == http.StatusOK && string(data) == "complete artifact\n" &&
			resp2.Trailer.Get(TrailerComplete) == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("regeneration never succeeded: status %d, body %q", resp2.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicDoesNotPoisonKey: a run that panics drops its connection and
// abandons its cache entry, so the next request for the same key
// regenerates instead of waiting on a leader that will never finish.
func TestPanicDoesNotPoisonKey(t *testing.T) {
	srv := New(Options{})
	var calls atomic.Int32
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		if calls.Add(1) == 1 {
			panic("scenario bug")
		}
		_, err := io.WriteString(w, "the artifact\n")
		return err
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the panic is expected
	ts.Start()
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	const body = `{"kind":"battery","experiments":["table7"]}`

	if resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body)); err == nil {
		data, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr == nil && resp.Trailer.Get(TrailerComplete) == "1" {
			t.Fatalf("panicking run answered %d with a complete artifact %q", resp.StatusCode, data)
		}
	}

	resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("reading the regenerated artifact: %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(data) != "the artifact\n" ||
		resp.Trailer.Get(TrailerComplete) != "1" {
		t.Fatalf("after the panic: status %d, body %q, trailer %q; want 200, the artifact, 1",
			resp.StatusCode, data, resp.Trailer.Get(TrailerComplete))
	}
}

// TestTimeout504: a run exceeding the per-request budget that has not
// streamed anything yet reports 504.
func TestTimeout504(t *testing.T) {
	srv := New(Options{Timeout: 30 * time.Millisecond})
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, data := postScenario(t, ts.URL, `{"kind":"battery","experiments":["table7"]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %s)", resp.StatusCode, data)
	}
}

// TestSingleFlight: concurrent identical requests run the scenario once;
// every response carries the same bytes.
func TestSingleFlight(t *testing.T) {
	srv := New(Options{Workers: 4})
	var mu sync.Mutex
	runs := 0
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		mu.Lock()
		runs++
		mu.Unlock()
		time.Sleep(50 * time.Millisecond) // hold the key long enough to collect followers
		_, err := io.WriteString(w, "the artifact\n")
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(`{"kind":"battery","experiments":["table7"]}`))
			if err != nil {
				return
			}
			data, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	mu.Lock()
	if runs != 1 {
		t.Errorf("scenario ran %d times for %d identical requests, want 1", runs, clients)
	}
	mu.Unlock()
	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("client %d status = %d", i, statuses[i])
		}
		if string(bodies[i]) != "the artifact\n" {
			t.Errorf("client %d body = %q", i, bodies[i])
		}
	}
}

// TestHealthzAndScenarios: the introspection endpoints answer 200 JSON.
func TestHealthzAndScenarios(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/healthz", "/v1/scenarios"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if !bytes.Contains(data, []byte("{")) {
			t.Errorf("%s body = %q, want JSON", path, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !bytes.Contains(data, []byte("table7")) || !bytes.Contains(data, []byte("mmwave")) {
		t.Errorf("/v1/scenarios missing ids or mixes: %s", data)
	}
}

// TestGracefulDrain SIGTERMs a busy server (through the same
// signal.NotifyContext wiring fgservd uses) and asserts the in-flight
// request still completes its artifact — a drain must never truncate a
// response — while new requests are refused.
func TestGracefulDrain(t *testing.T) {
	srv := New(Options{})
	inRun := make(chan struct{})
	finish := make(chan struct{})
	srv.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		if _, err := io.WriteString(w, "head\n"); err != nil {
			return err
		}
		close(inRun)
		<-finish
		_, err := io.WriteString(w, "tail\n")
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status   int
		body     string
		complete string
		err      error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json",
			strings.NewReader(`{"kind":"battery","experiments":["table7"]}`))
		if err != nil {
			got <- result{err: err}
			return
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			got <- result{err: err}
			return
		}
		got <- result{resp.StatusCode, string(data), resp.Trailer.Get(TrailerComplete), nil}
	}()
	<-inRun

	// The drain signal arrives mid-request.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait until the server observes it and starts refusing new work.
	for i := 0; ; i++ {
		if srv.draining.Load() {
			break
		}
		if i > 1000 {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Let the in-flight scenario finish; it must stream its tail.
	close(finish)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK || r.body != "head\ntail\n" || r.complete != "1" {
		t.Fatalf("in-flight request truncated by drain: status %d, body %q, complete %q",
			r.status, r.body, r.complete)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
}

// TestLoadTestInProcess: the harness end-to-end against a live server with
// a reduced request count (the 1000-request run is the fgservd -selftest
// and the ci.sh gate; this keeps `go test` fast).
func TestLoadTestInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	srv := New(Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	report, lerr := LoadTest(LoadOptions{
		BaseURL:  "http://" + ln.Addr().String(),
		Requests: 120,
		WindowS:  1,
	})
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if lerr != nil {
		t.Fatal(lerr)
	}
	if report.Failed() {
		t.Fatalf("load test failed:\n%s", report)
	}
}
