// Package campaign exercises the sharedwrite check: package-level writes
// reached from a goroutine spawn — directly, through plain calls, through
// interface dispatch, and through function values (a registry, a closure)
// — are flagged; init-time registration, main-goroutine reduces, field
// writes, synchronized-container method calls, and functions that merely
// share a registry's signature are not.
package campaign

import "sync"

var totalEvents int
var progress int64
var mu sync.Mutex
var registry = map[string]int{}
var counters sync.Map

// Register runs at init time, before any shard goroutine exists; writing
// package state from the main goroutine is fine.
func Register(name string) {
	registry[name] = len(registry)
}

// Reduce also runs on the main goroutine, after Wait; not spawn-reachable,
// not flagged.
func Reduce() {
	totalEvents = 0
}

type stepper interface{ step() }

type shardA struct{ n int }

// step mutates only its own receiver field: never flagged.
func (s *shardA) step() { s.n++ }

type shardB struct{}

// step reaches a package-level write two hops deep, through the interface.
func (shardB) step() { bump() }

func bump() {
	totalEvents++ // flagged: reachable via go runShard -> stepper.step -> bump
}

func finishShard() {
	delete(registry, "done") // flagged: delete mutates shared state
}

// tickProgress is spawn-reachable and writes package state, but the write
// is mutex-guarded, reviewed, and annotated: the sanctioned exception.
func tickProgress() {
	mu.Lock()
	//fgvet:allow sharedwrite reviewed mutex-guarded progress counter; never feeds artifacts
	progress++
	mu.Unlock()
	counters.Store("ticks", progress) // method call on sync.Map: not flagged
}

func runShard(s stepper, wg *sync.WaitGroup) {
	defer wg.Done()
	for i := 0; i < 4; i++ {
		s.step()
	}
	tickProgress()
	finishShard()
}

// Run spawns the shards.
func Run(shards int) {
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go runShard(shardB{}, &wg)
	}
	wg.Wait()
}

// jobs is a registry of per-shard jobs, filled at init time and called
// only through its function values.
var jobs []func(int)

var jobRuns int

func init() {
	jobs = append(jobs, countJob)
}

func countJob(n int) {
	jobRuns += n // flagged: reachable via go runJobs -> jobs[i](1) -> countJob
}

// resetJobs has the registry's signature but is never used as a value, so
// no call through a func(int) can reach it: not flagged.
func resetJobs(n int) {
	jobRuns = n
}

func runJobs(wg *sync.WaitGroup) {
	defer wg.Done()
	for i := range jobs {
		jobs[i](1)
	}
}

var lastShard int

func callEach(f func(), wg *sync.WaitGroup) {
	defer wg.Done()
	f()
}

// RunJobs resets the counter on the main goroutine, then spawns registry
// runners and hands each shard a closure that runs only behind a function
// value.
func RunJobs(shards int) {
	resetJobs(0)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(2)
		go runJobs(&wg)
		shard := i
		go callEach(func() {
			lastShard = shard // flagged: the literal runs where callEach calls f
		}, &wg)
	}
	wg.Wait()
}
