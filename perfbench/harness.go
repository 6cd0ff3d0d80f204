package main

import (
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	"fivegsim/internal/trace"
)

// harness carries one run's settings, its tracer and its fault seams.
type harness struct {
	seed    int64
	seconds float64
	// minOps is the least number of timed ops, whatever -seconds says.
	minOps int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// rec is nil when tracing is off.
	rec *recorder
	// start is process-side start: the first set-up is timed from here.
	start  time.Time
	size   sizes
	faults faults
}

// defaultSetups is the number of set-ups per run.
const defaultSetups = 3

// timedOut reports whether the timed phase that began at t0 is over after
// ops ops.
func (h *harness) timedOut(t0 time.Time, ops int) bool {
	return ops >= h.minOps && time.Since(t0).Seconds() >= h.seconds
}

// tracing reports whether op k is traced. A traced run alternates traced
// and untraced ops, so it measures its own overhead.
func (h *harness) tracing(k int) bool { return h.rec != nil && k%2 == 0 }

// resetTraceCache gives the next set-up the empty trace cache a fresh
// process starts with, so every set-up pays the same lazy generation.
func resetTraceCache() { trace.DefaultCache = trace.NewCache() }

// sizes are the workload dimensions. Production sizes are the CLI
// defaults; tests shrink them.
type sizes struct {
	// batteryIDs nil means every experiment (`fgrepro all`).
	batteryIDs   []string
	batteryQuick bool
	// fleetUEs is the population per mix (fgfleet -ues).
	fleetUEs int
	// serveClients is the closed-loop client count; each holds one
	// keep-alive connection.
	serveClients int
	// serveFleetUEs sizes the fleet scenarios served.
	serveFleetUEs int
	// missRounds is the fixed number of serve-miss rounds.
	missRounds int
	// hitKeySets is how many sets of scenarios serve-hit replays.
	hitKeySets int
	// hitRequests is the fixed number of serve-hit replays.
	hitRequests int
}

// missRoundsPerSecond and hitRequestsPerSecond convert -seconds into the
// fixed serve-miss round count and serve-hit request count. Both depend on
// -seconds only, never on speed, so a faster commit serves exactly the keys
// and requests a slower one does, and peak_rss_mb cannot penalise speed.
// On a 2-core host the timed phase then takes between half of -seconds
// (host idle) and all of it (host busy).
const (
	missRoundsPerSecond  = 3
	hitRequestsPerSecond = 12000
)

// maxClients caps the serve clients at nproc or 64, whichever is less:
// keySeed keeps seeds distinct for up to 1024 keys per round.
const maxClients = 64

func defaultSizes(seconds float64) sizes {
	rounds := int(math.Round(seconds * missRoundsPerSecond))
	if rounds < 1 {
		rounds = 1
	}
	return sizes{
		fleetUEs:      100000,
		serveClients:  min(runtime.NumCPU(), maxClients),
		serveFleetUEs: 4000,
		missRounds:    rounds,
		hitKeySets:    6,
		hitRequests:   int(math.Round(seconds*hitRequestsPerSecond)) + 1,
	}
}

// faults are the seams tests use to prove verification is not vacuous.
// Nil fields mean no fault.
type faults struct {
	// sink wraps the hashing writer of one battery or fleet artifact.
	sink func(op int, artifact string, w io.Writer) io.Writer
	// transport wraps each serve client's round tripper.
	transport func(http.RoundTripper) http.RoundTripper
	// handler wraps the server's handler.
	handler func(http.Handler) http.Handler
}
