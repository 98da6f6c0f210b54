package hdl

import (
	"fmt"
	"strings"
	"testing"

	"castanet/internal/sim"
)

// Tests of edge-qualified sensitivity (OnRising) and of Sleep/Wake, run
// on both kernels: the qualifier and the sleep state live in the shared
// wake machinery, so neither may depend on the data plane.

func forBothKernels(t *testing.T, f func(t *testing.T, compile func(*Simulator))) {
	t.Helper()
	t.Run("event", func(t *testing.T) { f(t, func(*Simulator) {}) })
	t.Run("compiled", func(t *testing.T) { f(t, func(s *Simulator) { s.MustCompile() }) })
}

func TestOnRisingRegistrationOrder(t *testing.T) {
	// Both-edge and rising-only processes share one clock and one piece
	// of Go state; on every rising edge they must run in registration
	// order, whatever their qualifier.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, 10*sim.Nanosecond)
		var log []string
		both := func(name string) func() {
			return func() {
				if clk.Rising() {
					log = append(log, name)
				}
			}
		}
		rise := func(name string) func() { return func() { log = append(log, name) } }
		a := s.Process("a", both("a"), clk)
		b := s.OnRising(clk, "b", rise("b"))
		c := s.Process("c", both("c"), clk)
		d := s.OnRising(clk, "d", rise("d"))
		compile(s)
		if err := s.Run(32 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		// Rising edges at 5, 15, 25 ns.
		want := strings.Repeat("abcd", 3)
		if got := strings.Join(log, ""); got != want {
			t.Fatalf("run order %q, want %q", got, want)
		}
		// Both-edge processes run at elaboration and on every edge (6
		// events up to 32 ns); rising-only ones on the 3 rising edges only.
		for _, p := range []*Process{a, c} {
			if p.Runs() != 7 {
				t.Errorf("%s runs = %d, want 7", p.Name(), p.Runs())
			}
		}
		for _, p := range []*Process{b, d} {
			if p.Runs() != 3 {
				t.Errorf("%s runs = %d, want 3", p.Name(), p.Runs())
			}
		}
	})
}

func TestOnRisingQualifier(t *testing.T) {
	// Only a low→high event is a rising edge, exactly as for Rising():
	// U→1, X→1, falling edges and 1→X never trigger; 0→1, L→1 and 0→H do.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		c := s.Bit("c", U)
		dc := c.Driver("tb")
		var at []sim.Time
		s.OnRising(c, "p", func() {
			if !c.Rising() {
				t.Errorf("triggered at %v without a rising edge", s.Now())
			}
			at = append(at, s.Now())
		})
		seq := []Logic{L1, L0, L1, X, L1, L0, WL, L1, L0, WH, U, L1}
		for i, l := range seq {
			l := l
			s.Schedule(sim.Duration(i+1)*sim.Nanosecond, func() { dc.SetBit(l) })
		}
		compile(s)
		if err := s.Run(sim.Never); err != nil {
			t.Fatal(err)
		}
		// 0→1 at 3 ns, L→1 at 8 ns, 0→H at 10 ns.
		want := []sim.Time{3 * sim.Nanosecond, 8 * sim.Nanosecond, 10 * sim.Nanosecond}
		if fmt.Sprint(at) != fmt.Sprint(want) {
			t.Fatalf("triggered at %v, want %v", at, want)
		}
	})
}

func TestOnRisingRejectsVector(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OnRising on a vector did not panic")
		}
	}()
	s := New()
	s.OnRising(s.Signal("bus", 4, U), "p", func() {})
}

func TestSleepWake(t *testing.T) {
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, 10*sim.Nanosecond) // rising edges at 5, 15, 25, ...
		var edges []sim.Time
		var p *Process
		p = s.OnRising(clk, "p", func() {
			edges = append(edges, s.Now())
			if len(edges) == 2 {
				p.Sleep()
			}
		})
		// Woken between instants: runs again at the next edge (45 ns).
		s.Schedule(40*sim.Nanosecond, p.Wake)
		compile(s)
		if err := s.Run(50 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		want := []sim.Time{5 * sim.Nanosecond, 15 * sim.Nanosecond, 45 * sim.Nanosecond}
		if fmt.Sprint(edges) != fmt.Sprint(want) {
			t.Fatalf("ran at %v, want %v", edges, want)
		}
		// Skipped triggers are not runs.
		if p.Runs() != 3 || s.ProcessRuns() != 3 {
			t.Fatalf("Runs = %d, ProcessRuns = %d, want 3 and 3", p.Runs(), s.ProcessRuns())
		}
	})
}

func TestWakeWithinEdge(t *testing.T) {
	// A process woken during the edge's process phase by one registered
	// before it runs at this edge, as if it had never slept; woken by one
	// registered after it (it was already passed over), at the next edge.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, 10*sim.Nanosecond)
		var log []string
		var early, late *Process
		s.OnRising(clk, "waker1", func() {
			if s.Now() == 15*sim.Nanosecond {
				late.Wake()
			}
		})
		early = s.OnRising(clk, "early", func() {
			log = append(log, fmt.Sprintf("early@%d", s.Now()/sim.Nanosecond))
			early.Sleep()
		})
		late = s.OnRising(clk, "late", func() {
			log = append(log, fmt.Sprintf("late@%d", s.Now()/sim.Nanosecond))
			late.Sleep()
		})
		s.OnRising(clk, "waker2", func() {
			if s.Now() == 25*sim.Nanosecond {
				early.Wake()
			}
		})
		early.Sleep()
		late.Sleep()
		compile(s)
		if err := s.Run(40 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		want := "late@15 early@35"
		if got := strings.Join(log, " "); got != want {
			t.Fatalf("log %q, want %q", got, want)
		}
	})
}

func TestWakeOnHook(t *testing.T) {
	// WakeOn re-arms without triggering: the event itself runs nothing,
	// the next clock edge does — including an event landing in the very
	// delta of the edge.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, 10*sim.Nanosecond) // rising edges at 5, 15, 25, 35
		sync := s.Bit("sync", L0)
		ds := sync.Driver("tb")
		var edges []sim.Time
		var p *Process
		p = s.OnRising(clk, "p", func() {
			edges = append(edges, s.Now())
			p.Sleep()
		})
		p.WakeOn(sync)
		p.Sleep()
		s.Schedule(8*sim.Nanosecond, func() { ds.SetBit(L1) })  // between edges
		s.Schedule(25*sim.Nanosecond, func() { ds.SetBit(L0) }) // same delta as the edge
		compile(s)
		if err := s.Run(40 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		want := []sim.Time{15 * sim.Nanosecond, 25 * sim.Nanosecond}
		if fmt.Sprint(edges) != fmt.Sprint(want) {
			t.Fatalf("ran at %v, want %v", edges, want)
		}
	})
}
