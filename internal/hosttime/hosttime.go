// Package hosttime is the one door through which a deterministic package
// (internal/lint: DeterministicPackages) may read the host's clock: to
// decide where work runs — on how many cores, in what chunks — never what
// it computes. The simulator's window hand-off (internal/vclock/lanes.go)
// is the caller: it times the events it fires to tell a window worth the
// cost of waking its workers from one that is not. Anything a simulation
// outputs stays a function of its seed; p2plint's detrand keeps flagging
// time.Now in those packages.
package hosttime

import "time"

var origin = time.Now()

// Now returns the monotonic wall time since the process started.
func Now() time.Duration { return time.Since(origin) }
