package des

import (
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want clock advanced to horizon", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(5, func() { fired = true })
	s.Run(4)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != 4 {
		t.Errorf("Now = %v", s.Now())
	}
	s.Run(6)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d", s.Pending())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Run(5)
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and cancelling a fired event are no-ops.
	s.Cancel(e)
	e2 := s.Schedule(1, func() {})
	s.Run(10)
	s.Cancel(e2)
	s.Cancel(nil)
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New()
	fired := false
	var target *Event
	s.Schedule(1, func() { s.Cancel(target) })
	target = s.Schedule(2, func() { fired = true })
	s.Run(5)
	if fired {
		t.Error("event cancelled at t=1 still fired at t=2")
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, func() { count++ })
	s.Schedule(2, func() { count++ })
	if !s.Step() || count != 1 || s.Now() != 1 {
		t.Fatalf("first step: count=%d now=%v", count, s.Now())
	}
	if !s.Step() || count != 2 {
		t.Fatal("second step")
	}
	if s.Step() {
		t.Error("empty queue should report false")
	}
	if s.Fired() != 2 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("At() before now should panic")
		}
	}()
	s.At(1, func() {})
}

func TestManyEvents(t *testing.T) {
	s := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		s.Schedule(float64(n-i), func() { count++ })
	}
	s.Run(float64(n + 1))
	if count != n {
		t.Errorf("fired %d of %d", count, n)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(float64(j%17), func() {})
		}
		s.Run(20)
	}
}
