//go:build !linux

package vclock

import "runtime"

// osYield yields the goroutine: see yield_linux.go for why a spin yields.
func osYield() { runtime.Gosched() }
