// Package tagged is the loader fixture: one unconditional file, one file
// whose //go:build constraint always holds, one whose constraint can never
// hold, and one whose _plan9 file name excludes it off plan9. The excluded
// files redeclare impl, so accidentally including either would be a
// duplicate-declaration typecheck error — the test passing proves the
// loader built the same file set as the go tool.
package tagged

// Value uses the implementation provided by the satisfied tagged file.
func Value() int { return impl() }
