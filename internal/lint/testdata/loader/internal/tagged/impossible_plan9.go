// This file has no //go:build line: its _plan9 name suffix alone confines
// it to plan9, so every other host excludes it; its impl would collide
// with current.go's otherwise.
package tagged

func impl() int { return 3 }
