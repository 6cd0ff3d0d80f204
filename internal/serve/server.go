package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
)

// Options parameterises a Server. Zero values mean the defaults.
type Options struct {
	// Workers bounds the scenarios generating concurrently; 0 means
	// GOMAXPROCS. Cache replays bypass the pool entirely.
	Workers int
	// Queue bounds the requests waiting for a worker slot beyond the ones
	// running; 0 means DefaultQueue. A request arriving with the queue full
	// is rejected immediately with 429 — explicit back-pressure, never an
	// unbounded goroutine pile-up.
	Queue int
	// Timeout is the per-request run budget; 0 means DefaultTimeout. A run
	// exceeding it is canceled at the next reduce-step boundary and the
	// response marked incomplete.
	Timeout time.Duration
	// CacheEntries bounds the artifact cache; 0 means DefaultCacheEntries.
	// Completed artifacts evict in completion order once the bound is hit.
	CacheEntries int
}

// Defaults for Options zero values.
const (
	DefaultQueue        = 64
	DefaultTimeout      = 120 * time.Second
	DefaultCacheEntries = 256
)

// Response headers and the completeness trailer. Trace artifacts stream
// chunked while the simulation runs, so the status line alone cannot
// promise a complete artifact; the trailer, written after the final chunk,
// can. Clients (the load-test harness, ci.sh) treat a 200 without
// TrailerComplete "1" as truncated.
const (
	HeaderCache     = "X-Fgserv-Cache" // "hit" (replay) or "miss" (generated)
	HeaderKey       = "X-Fgserv-Key"   // the canonical scenario key
	TrailerComplete = "X-Fgserv-Complete"
)

// Server is the scenario service: an http.Handler plus the worker pool,
// the bounded queue, and the single-flight artifact cache.
type Server struct {
	opts     Options
	sem      chan struct{} // worker slots
	queue    chan struct{} // queue slots (waiting requests only)
	cache    *artifactCache
	mux      *http.ServeMux
	draining atomic.Bool

	// runScenario is the generation seam; tests substitute it to model
	// slow or blocking scenarios deterministically.
	runScenario func(ctx context.Context, sc *Scenario, w io.Writer) error
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = DefaultCacheEntries
	}
	s := &Server{
		opts:  opts,
		sem:   make(chan struct{}, opts.Workers),
		queue: make(chan struct{}, opts.Queue),
		cache: newArtifactCache(opts.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.runScenario = func(ctx context.Context, sc *Scenario, w io.Writer) error {
		return RunScenario(ctx, sc, w)
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is done, then drains
// gracefully: the listener closes, in-flight requests run to completion
// (finishing their artifacts — a drain must never truncate a response),
// and Serve returns. New requests observed during the drain get 503.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.draining.Store(true)
		// No deadline: Shutdown waits for every in-flight handler. The
		// per-request timeout already bounds how long that can take.
		done <- hs.Shutdown(context.Background())
	}()
	err := hs.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// handleRun is POST /v1/run: parse, consult the cache, and either replay
// the artifact or generate it under the worker pool while streaming it.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	sc, err := ParseScenario(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := sc.CanonicalKey()
	w.Header().Set(HeaderKey, key)

	// Single-flight with bounded retry: if the leader generating this key
	// fails (its client vanished, its run timed out), its entry is removed
	// and a waiting follower promotes itself to leader and regenerates.
	for attempt := 0; attempt < 4; attempt++ {
		e, leader := s.cache.acquire(key)
		if leader {
			s.generate(w, r, sc, key, e)
			return
		}
		select {
		case <-e.done:
		case <-r.Context().Done():
			return // client gone; nothing to write
		}
		if e.err == nil {
			s.replay(w, sc, e)
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable,
		"scenario generation keeps failing upstream; retry")
}

// replay streams a completed cache entry: a whole-artifact write with an
// exact Content-Length, byte-identical to the generating response. With a
// Content-Length the response is not chunked, so there is no completeness
// trailer — clients detect truncation by the length itself.
func (s *Server) replay(w http.ResponseWriter, sc *Scenario, e *cacheEntry) {
	h := w.Header()
	h.Set(HeaderCache, "hit")
	h.Set("Content-Type", sc.ContentType())
	h.Set("Content-Length", strconv.Itoa(len(e.bytes)))
	w.WriteHeader(http.StatusOK)
	// A short write here means the client went away mid-replay; it sees a
	// Content-Length mismatch, and the cached artifact is untouched.
	_, _ = w.Write(e.bytes)
}

// generate runs the scenario as the cache leader: acquire a queue slot
// (429 when full), wait for a worker slot, then stream the artifact in
// chunks while teeing it into the cache entry. On any failure the entry is
// abandoned so a later request regenerates.
func (s *Server) generate(w http.ResponseWriter, r *http.Request, sc *Scenario, key string, e *cacheEntry) {
	// A panicking run leaves the entry unsettled. Abandon it on the way out
	// so followers and later requests regenerate instead of waiting on a
	// dead leader; the panic goes on to net/http, which logs it and drops
	// the connection, so the client sees no completeness trailer. Only this
	// goroutine closes e.done, so the check cannot race.
	defer func() {
		select {
		case <-e.done:
		default:
			s.cache.abandon(key, e, errLeaderAborted)
		}
	}()
	select {
	case s.queue <- struct{}{}:
	default:
		s.cache.abandon(key, e, errQueueFull)
		httpError(w, http.StatusTooManyRequests,
			"queue full (%d waiting); retry later", cap(s.queue))
		return
	}
	// Hold the queue slot until a worker slot is free; the slot frees the
	// moment the run starts, so the queue counts only waiting requests.
	var release sync.Once
	releaseQueue := func() { release.Do(func() { <-s.queue }) }
	defer releaseQueue()

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.cache.abandon(key, e, ctx.Err())
		status := http.StatusServiceUnavailable
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		httpError(w, status, "timed out waiting for a worker slot: %v", ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	releaseQueue()

	h := w.Header()
	h.Set(HeaderCache, "miss")
	h.Set("Content-Type", sc.ContentType())
	h.Set("Trailer", TrailerComplete)
	tee := &teeResponse{w: w}
	err := s.runScenario(ctx, sc, tee)
	if err != nil {
		s.cache.abandon(key, e, err)
		if tee.started {
			// Bytes already streamed: the status line is gone, so the
			// trailer is the only truthful channel left.
			h.Set(TrailerComplete, "0")
			return
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, "scenario failed: %v", err)
		return
	}
	s.cache.complete(key, e, tee.buf)
	if !tee.started {
		// A legitimately empty artifact still needs its status line.
		w.WriteHeader(http.StatusOK)
	}
	complete := "1"
	if tee.werr != nil {
		complete = "0"
	}
	h.Set(TrailerComplete, complete)
}

// handleHealthz reports liveness and the back-pressure state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w,
		"{\"status\":%q,\"running\":%d,\"workers\":%d,\"queued\":%d,\"queue_cap\":%d,\"cached\":%d}\n",
		map[bool]string{false: "ok", true: "draining"}[s.draining.Load()],
		len(s.sem), cap(s.sem), len(s.queue), cap(s.queue), s.cache.len())
}

// handleScenarios lists what can be requested: experiment ids, fleet mixes,
// artifacts, and trace formats, in deterministic order.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	mixes := make([]string, len(fleet.AllMixes))
	for i, m := range fleet.AllMixes {
		mixes[i] = m.String()
	}
	out := struct {
		Experiments  []string `json:"experiments"`
		Mixes        []string `json:"mixes"`
		Artifacts    []string `json:"artifacts"`
		TraceFormats []string `json:"trace_formats"`
	}{experiments.IDs(), mixes,
		[]string{ArtifactTable, ArtifactTrace, ArtifactMetrics},
		traceFormats}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// teeResponse streams chunks to the client while keeping the full artifact
// for the cache. A client write error is recorded, not propagated: the
// generation continues so the cache entry completes and later requests
// replay it (the run was paid for; the determinism contract makes the
// buffered bytes just as valid as streamed ones). The request context still
// cancels the run when the client disconnects entirely.
type teeResponse struct {
	w       http.ResponseWriter
	buf     []byte
	werr    error
	started bool
}

func (t *teeResponse) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	t.started = true
	if t.werr == nil {
		if _, err := t.w.Write(p); err != nil {
			t.werr = err
		} else if f, ok := t.w.(http.Flusher); ok {
			f.Flush()
		}
	}
	return len(p), nil
}

// errQueueFull marks entries abandoned by back-pressure so waiting
// followers retry (and typically hit the same 429).
var errQueueFull = errors.New("serve: queue full")

// errLeaderAborted marks entries whose leader left generate without
// settling them (a panicking run).
var errLeaderAborted = errors.New("serve: generation aborted")

// cacheEntry is the single-flight unit: done closes when generation
// finishes (successfully or not); bytes holds the completed artifact.
type cacheEntry struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// artifactCache memoizes completed artifacts by canonical scenario key with
// single-flight de-duplication: the map mutex is never held across
// generation (the trace.Cache discipline), and each key has at most one
// generator at a time.
type artifactCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   []string // completed keys in completion order, for eviction
}

func newArtifactCache(max int) *artifactCache {
	return &artifactCache{max: max, entries: make(map[string]*cacheEntry)}
}

// acquire returns the entry for key. leader is true when the caller created
// it and must generate (then call complete or abandon); otherwise the caller
// waits on entry.done.
func (c *artifactCache) acquire(key string) (e *cacheEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e, false
	}
	e = &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// complete publishes the artifact and evicts the oldest completed entries
// beyond the bound.
func (c *artifactCache) complete(key string, e *cacheEntry, data []byte) {
	c.mu.Lock()
	e.bytes = data
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.mu.Unlock()
	close(e.done)
}

// abandon removes a failed generation so the next request retries, and
// wakes any followers with the error.
func (c *artifactCache) abandon(key string, e *cacheEntry, err error) {
	c.mu.Lock()
	if err == nil {
		err = errors.New("serve: generation abandoned")
	}
	e.err = err
	// Only remove the entry if it is still ours: a follower may have
	// already re-acquired the key and begun its own generation.
	if c.entries[key] == e {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
}

// len reports the number of live entries (completed or generating).
func (c *artifactCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
