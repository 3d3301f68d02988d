package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunFiresInTimeOrder(t *testing.T) {
	s := New()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Second
		s.Schedule(d, func() { got = append(got, d) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
}

func TestEqualTimesFireFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO tie-break violated: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at time.Duration
	s.Schedule(2*time.Second, func() {
		s.ScheduleAfter(3*time.Second, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("After fired at %v, want 5s", at)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New()
	var fired bool
	s.Schedule(10*time.Second, func() {
		s.Schedule(time.Second, func() { fired = true }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped event never fired")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("fired %d events before stop, want 3", count)
	}
}

func TestDeadline(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.SetDeadline(5 * time.Second)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("fired %d events, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want deadline 5s", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(3 * time.Second)
	if count != 3 {
		t.Fatalf("fired %d, want 3", count)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock %v, want 3s", s.Now())
	}
	s.RunUntil(20 * time.Second)
	if count != 10 {
		t.Fatalf("fired %d, want 10", count)
	}
	if s.Now() != 20*time.Second {
		t.Fatalf("clock %v, want 20s (RunUntil advances to target)", s.Now())
	}
}

func TestPending(t *testing.T) {
	s := New()
	if s.Pending() != 0 {
		t.Fatal("fresh sim has pending events")
	}
	s.Schedule(time.Second, func() {})
	s.Schedule(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.RunUntil(time.Second)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil callback must panic")
		}
	}()
	New().Schedule(time.Second, nil)
}

// Property: for any set of delays, Run fires every event exactly once in
// nondecreasing time order and ends with the clock at the max delay.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []time.Duration
		var max time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			if at > max {
				max = at
			}
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 10000)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1e6)) * time.Microsecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, d := range delays {
			s.Schedule(d, func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScheduleInterleavesWithAt pins that the absolute and the relative
// form share the (time, sequence) order: scheduling order breaks time ties
// regardless of which of the two queued the event.
func TestScheduleInterleavesWithAt(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(time.Second, func() { got = append(got, 0) })
	s.ScheduleAfter(time.Second, func() { got = append(got, 1) })
	s.Schedule(time.Second, func() { got = append(got, 2) })
	s.ScheduleAfter(500*time.Millisecond, func() { got = append(got, 3) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestSchedulePastClamped is the clamping of the relative form: a negative
// delay fires now.
func TestSchedulePastClamped(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(10*time.Second, func() {
		s.ScheduleAfter(-time.Second, func() { fired = true }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || s.Now() != 10*time.Second {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

// TestScheduleSteadyStateAllocs pins the hot-path property the simnet
// delivery path depends on: once the queue has grown to its working
// capacity, Schedule+Run cycles do not allocate (the closure passed in
// is the caller's business; here it is hoisted out of the loop).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the queue's backing array.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.RunUntil(time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.Schedule(s.Now()+time.Duration(i), fn)
		}
		s.RunUntil(s.Now() + time.Second)
	})
	if allocs != 0 {
		t.Fatalf("warm Schedule+RunUntil allocated %.1f times per run, want 0", allocs)
	}
}
