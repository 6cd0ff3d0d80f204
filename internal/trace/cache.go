package trace

import (
	"sync"
	"sync/atomic"
)

// Per-trace seed strides within a generated set: trace i of a set draws from
// seed + i*stride, so a set is fully determined by (kind, durS, seed) and a
// longer set is an extension of a shorter one with the same key.
const (
	SeedStride5G = 7919
	SeedStride4G = 104729
)

// setKey identifies a generated trace set independently of its length.
type setKey struct {
	fiveG bool
	durS  int
	seed  int64
}

// entry is the single-flight unit of the cache: one per key, with its own
// mutex. Requests for the same key serialize on entry.mu (the first caller
// generates, later callers find the finished set), while requests for
// different keys generate concurrently — the cache-wide mutex only guards
// the key -> entry map and is never held across trace generation.
type entry struct {
	mu  sync.Mutex
	set [][]float64
}

// Cache memoizes generated trace sets across experiments.
// Sets are keyed by (kind, duration, seed) — deliberately not by count: the
// cache stores the longest set generated so far for each key and hands out
// prefixes, so an experiment asking for 15 traces and another asking for 50
// with the same seed share the first 15 generations.
//
// Generation is single-flight per key: when N experiments on the battery's
// workers request the same (kind, dur, seed) set, exactly one generates
// each trace and the rest block until it is cached, rather than all N
// paying the generation cost (or serializing unrelated keys behind one
// global lock).
//
// Returned sets and their traces are shared and MUST be treated as
// read-only; every simulation in this repo only ever reads traces.
type Cache struct {
	mu      sync.Mutex
	entries map[setKey]*entry
	gens    atomic.Int64
}

// NewCache returns an empty cache. The zero value is also usable.
func NewCache() *Cache { return &Cache{entries: make(map[setKey]*entry)} }

func (c *Cache) get(k setKey, n int) [][]float64 {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[setKey]*entry)
	}
	e := c.entries[k]
	if e == nil {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.set) < n {
		stride, gen := int64(SeedStride4G), Gen4G
		if k.fiveG {
			stride, gen = SeedStride5G, Gen5GmmWave
		}
		for i := len(e.set); i < n; i++ {
			e.set = append(e.set, gen(k.seed+int64(i)*stride, k.durS))
			c.gens.Add(1)
		}
	}
	// Full-capacity slicing keeps a caller's append from writing into the
	// cached backing array.
	return e.set[:n:n]
}

// Generations returns the total number of traces generated (not served from
// cache) so far. Concurrency tests use it to assert single-flight: however
// many goroutines race on one key, each trace is generated exactly once.
func (c *Cache) Generations() int64 { return c.gens.Load() }

// Set5G returns n cached mmWave traces, generating any missing tail. The
// result is identical to GenSet5G(n, durS, seed).
func (c *Cache) Set5G(n, durS int, seed int64) [][]float64 {
	return c.get(setKey{fiveG: true, durS: durS, seed: seed}, n)
}

// Set4G returns n cached 4G traces, identical to GenSet4G(n, durS, seed).
func (c *Cache) Set4G(n, durS int, seed int64) [][]float64 {
	return c.get(setKey{fiveG: false, durS: durS, seed: seed}, n)
}

// DefaultCache is the process-wide cache used by the experiment battery;
// experiments that share (kind, duration, seed) pay for trace generation
// once per process instead of once per figure.
var DefaultCache = NewCache()

// CachedSet5G is GenSet5G through DefaultCache.
func CachedSet5G(n, durS int, seed int64) [][]float64 {
	return DefaultCache.Set5G(n, durS, seed)
}

// CachedSet4G is GenSet4G through DefaultCache.
func CachedSet4G(n, durS int, seed int64) [][]float64 {
	return DefaultCache.Set4G(n, durS, seed)
}
