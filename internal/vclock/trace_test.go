package vclock

import (
	"testing"
	"time"
)

// TestTraceHashDeterministic: two simulators fed the same schedule
// produce the same fingerprint and event count.
func TestTraceHashDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		s := New()
		for i := 1; i <= 5; i++ {
			s.Schedule(time.Duration(i)*time.Millisecond, func() {})
		}
		s.ScheduleAfter(2*time.Millisecond, func() {
			s.ScheduleAfter(time.Millisecond, func() {})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.TraceHash(), s.FiredCount()
	}
	h1, n1 := run()
	h2, n2 := run()
	if h1 != h2 || n1 != n2 {
		t.Fatalf("identical schedules diverge: %#x/%d vs %#x/%d", h1, n1, h2, n2)
	}
	if n1 != 7 {
		t.Fatalf("fired %d events, want 7", n1)
	}
}

// TestTraceHashSensitive: a different interleaving (one extra event, or
// the same events at different times) changes the fingerprint.
func TestTraceHashSensitive(t *testing.T) {
	base := New()
	base.Schedule(time.Millisecond, func() {})
	base.Schedule(2*time.Millisecond, func() {})
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}

	extra := New()
	extra.Schedule(time.Millisecond, func() {})
	extra.Schedule(2*time.Millisecond, func() {})
	extra.Schedule(3*time.Millisecond, func() {})
	if err := extra.Run(); err != nil {
		t.Fatal(err)
	}
	if base.TraceHash() == extra.TraceHash() {
		t.Fatal("extra event did not change the fingerprint")
	}

	shifted := New()
	shifted.Schedule(time.Millisecond, func() {})
	shifted.Schedule(4*time.Millisecond, func() {})
	if err := shifted.Run(); err != nil {
		t.Fatal(err)
	}
	if base.TraceHash() == shifted.TraceHash() {
		t.Fatal("shifted timing did not change the fingerprint")
	}
}
