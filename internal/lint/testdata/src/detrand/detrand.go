// Package detrand is golden-test input: host time (wall-clock reads and OS
// timers) and unseeded randomness that the detrand analyzer must flag, next
// to the seeded and virtual-time forms it must accept.
package detrand

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()        // want "time.Now reads the wall clock"
	return time.Since(start) + // want "time.Since reads the wall clock"
		time.Until(start.Add(time.Second)) // want "time.Until reads the wall clock"
}

func globalRand() int {
	n := rand.Intn(10)                 // want "global rand.Intn uses process-wide unseeded state"
	rand.Shuffle(n, func(i, j int) {}) // want "global rand.Shuffle uses process-wide unseeded state"
	_ = rand.Float64()                 // want "global rand.Float64 uses process-wide unseeded state"
	return n
}

// seededV1 is a seeded generator, but a math/rand v1 one: refused.
func seededV1(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // want "rand.New builds a math/rand v1 generator" // want "rand.NewSource builds a math/rand v1 generator"
	return rng.Intn(10)
}

// seeded is the sanctioned form: a math/rand/v2 stream keyed by the
// caller, a local generator over it.
func seeded(key [32]byte) int {
	rng := randv2.New(randv2.NewChaCha8(key))
	return rng.IntN(10) + int(randv2.NewPCG(1, 2).Uint64()%2)
}

// suppressedV1 documents a deliberate v1 stream kept for its recorded
// sequence.
func suppressedV1(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10) //lint:allow detrand golden fixture keeping a recorded v1 sequence
}

// durations and other non-clock time API stay legal.
func durationsOnly(d time.Duration) time.Duration {
	return d * 2 / time.Millisecond
}

// suppressed documents a deliberate wall-clock read.
func suppressed() time.Time {
	return time.Now() //lint:allow detrand startup banner timestamp is presentation-only
}

func sleeper() {
	time.Sleep(time.Millisecond) // want "time.Sleep schedules on the OS timer"
}

func timers(fn func()) {
	t := time.NewTimer(time.Second) // want "time.NewTimer schedules on the OS timer"
	defer t.Stop()
	time.AfterFunc(time.Second, fn) // want "time.AfterFunc schedules on the OS timer"
	<-time.After(time.Second)       // want "time.After schedules on the OS timer"
}

func tickers() {
	tk := time.NewTicker(time.Second) // want "time.NewTicker schedules on the OS timer"
	tk.Reset(time.Minute)             // methods on the value are not a second finding
	tk.Stop()
	<-time.Tick(time.Second) // want "time.Tick schedules on the OS timer"
}

// durations are not timers; arithmetic stays legal.
func budget(rounds int, interval time.Duration) time.Duration {
	return time.Duration(rounds) * interval
}

// suppressedSleep documents a deliberate host-timer use.
func suppressedSleep() {
	//lint:allow detrand backoff in operator tooling runs outside the round loop
	time.Sleep(10 * time.Millisecond)
}
