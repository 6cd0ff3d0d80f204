package sim

import (
	"strconv"
	"testing"
)

// BenchmarkScheduleRun measures the schedule->fire hot path. At steady
// state the slab and heap capacities are warm, so each op must recycle a
// slot from the freelist and report 0 allocs/op.
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Warm the slab, freelist, and heap backing arrays.
	for i := 0; i < 1024; i++ {
		e.Schedule(float64(i)*1e-3, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1e-3, fn)
		e.Step()
	}
}

// BenchmarkScheduleRunDeep is the same hot path with a deep calendar, so
// sift costs at realistic queue depths are visible.
func BenchmarkScheduleRunDeep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		// A standing backlog far in the future keeps the heap deep for
		// the whole measurement.
		e.Schedule(1e6+float64(i)*1e-3, fn)
	}
	// One warm-up op so the heap/slab growth beyond the backlog happens
	// before the timer starts.
	e.Schedule(1e-4, fn)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1e-4, fn) // fires before the standing backlog
		e.Step()
	}
}

// BenchmarkMultiSessionCalendar is the fan-in shape: thousands of sessions
// sharing one calendar, each re-arming its own pre-allocated closure at a
// staggered period. Steady state must hold 0 allocs/op at every depth.
func BenchmarkMultiSessionCalendar(b *testing.B) {
	for _, sessions := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(sizeName(sessions), func(b *testing.B) {
			e := NewEngine()
			// One closure per session, allocated up front: each fire
			// re-schedules itself at a period that staggers the calendar
			// so fire order keeps interleaving.
			steps := make([]func(), sessions)
			for i := range steps {
				period := 1 + float64(i%97)/97
				i := i
				steps[i] = func() { e.Schedule(period, steps[i]) }
			}
			for i, fn := range steps {
				e.Schedule(float64(i)/float64(sessions), fn)
			}
			// Drain one full rotation so heap and slab growth is done.
			for i := 0; i < 2*sessions; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1<<10 {
		return strconv.Itoa(n>>10) + "Ki"
	}
	return strconv.Itoa(n)
}

// BenchmarkCancelHeavy measures schedule->cancel, the other half of the
// freelist cycle (RRC demotion cascades are dominated by it).
func BenchmarkCancelHeavy(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(float64(i)*1e-3, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(1, fn)
		e.Cancel(ev)
	}
}

// BenchmarkTimerResetStorm measures repeated Timer.Reset, the inactivity-
// timer pattern: every data packet re-arms the tail timer.
func BenchmarkTimerResetStorm(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	tm.Reset(10)
	tm.Reset(10) // second arm warms the freelist via the implied Cancel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(10)
	}
}
