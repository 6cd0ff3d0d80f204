package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; parent is
// the id of the span that caused this one (0 for an op's root span).
type span struct {
	id, parent int64
	op         int64
	name       string
	start, end time.Duration // since the recorder started
}

// recorder keeps spans in memory until the run ends. Serve clients and the
// server's handler wrapper record concurrently, hence the mutex.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// newID allocates a span id.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span and returns its duration.
func (r *recorder) add(id, parent, op int64, name string, start, end time.Time) time.Duration {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		id: id, parent: parent, op: op, name: name,
		start: start.Sub(r.t0), end: end.Sub(r.t0),
	})
	r.mu.Unlock()
	return end.Sub(start)
}

// timed runs fn as a child span of parent and returns its duration. With
// a nil recorder it only runs fn.
func (r *recorder) timed(name string, op, parent int64, fn func() error) (time.Duration, error) {
	if r == nil {
		return 0, fn()
	}
	id := r.newID()
	start := time.Now()
	err := fn()
	return r.add(id, parent, op, name, start, time.Now()), err
}

// byOp returns the duration of every span with the given name, keyed by op.
func (r *recorder) byOp(name string) map[int64]time.Duration {
	out := make(map[int64]time.Duration)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.name == name {
			out[s.op] = s.end - s.start
		}
	}
	return out
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
