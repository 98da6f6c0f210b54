package hdl

import (
	"fmt"
	"strings"
	"testing"

	"castanet/internal/sim"
)

// Tests of the idle-clock fast-forward in RunBefore. The reference for
// every skipped cycle is the same design with a no-op OnChange probe on
// the clock, which turns skipping off: the two runs must agree on every
// counter, the delta stamp, the transaction seq, the activity profile,
// the clock's edge functions and everything the design logs.

const ffPeriod = 10 * sim.Nanosecond // rising edges at 5, 15, 25, ... ns

// ffState fingerprints the kernel between instants.
func ffState(s *Simulator, clk *Signal) string {
	return fmt.Sprintf("now=%v next=%v events=%d runs=%d deltas=%d points=%d stamp=%d seq=%d event=%v rising=%v bit=%v",
		s.Now(), s.NextTime(), s.Events(), s.ProcessRuns(), s.DeltaCycles(), s.TimePoints(),
		s.stamp, s.nseq, clk.Event(), clk.Rising(), clk.Bit())
}

// ffRun elaborates a clock and build's design, runs RunBefore to each
// bound in turn and returns the fingerprints, the design's log and the
// number of skipped cycles.
func ffRun(t *testing.T, compile func(*Simulator), probe bool, bounds []sim.Time,
	build func(s *Simulator, clk *Signal, log *[]string)) (string, uint64) {
	t.Helper()
	s := New()
	prof := s.EnableProfile()
	clk := s.Bit("clk", U)
	s.Clock(clk, ffPeriod)
	var log []string
	build(s, clk, &log)
	if probe {
		clk.OnChange(func(sim.Time, LV, LV) {})
	}
	compile(s)
	var out []string
	for _, b := range bounds {
		if err := s.RunBefore(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, ffState(s, clk))
	}
	out = append(out, strings.Join(log, " "), fmt.Sprint(prof.Snapshot()))
	return strings.Join(out, "\n"), s.SkippedCycles()
}

// ffCompare runs build unprobed and probed and requires identical
// results, with cycles skipped only in the unprobed run.
func ffCompare(t *testing.T, compile func(*Simulator), bounds []sim.Time,
	build func(s *Simulator, clk *Signal, log *[]string)) string {
	t.Helper()
	got, skipped := ffRun(t, compile, false, bounds, build)
	want, refSkipped := ffRun(t, compile, true, bounds, build)
	if got != want {
		t.Fatalf("fast-forward diverges from the executed run:\n skip:\n%s\n ref:\n%s", got, want)
	}
	if skipped == 0 || refSkipped != 0 {
		t.Fatalf("skipped %d cycles unprobed and %d probed, want >0 and 0", skipped, refSkipped)
	}
	return got
}

func TestFastForwardStopsAtBoundAndAgenda(t *testing.T) {
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		bounds := []sim.Time{777 * sim.Nanosecond, 1003 * sim.Nanosecond, 1004 * sim.Nanosecond,
			1800 * sim.Nanosecond, 2505 * sim.Nanosecond, 4001 * sim.Nanosecond}
		got := ffCompare(t, compile, bounds, func(s *Simulator, clk *Signal, log *[]string) {
			var p *Process
			p = s.OnRising(clk, "p", func() {
				*log = append(*log, fmt.Sprintf("p@%v/%v", s.Now(), clk.Rising()))
				p.Sleep()
			})
			note := func(what string) func() {
				return func() { *log = append(*log, fmt.Sprintf("%s@%v/%v", what, s.Now(), clk.Bit())) }
			}
			s.Schedule(1003*sim.Nanosecond, func() { note("wake")(); p.Wake() })
			s.Schedule(1500*sim.Nanosecond, note("look"))
			s.Schedule(2505*sim.Nanosecond, func() { note("edge")(); p.Wake() }) // the instant of a rising edge
		})
		// The callbacks ran at their own instants: the skip stopped at
		// the next agenda entry, not past it. A callback sharing its
		// instant with a toggle (1.5 µs falls, 2.505 µs rises) was
		// scheduled first and still runs before it.
		for _, want := range []string{"wake@1.003us/0", "p@1.005us/true", "look@1.5us/1", "edge@2.505us/0", "p@2.505us/true"} {
			if !strings.Contains(got, want) {
				t.Errorf("log lacks %q:\n%s", want, got)
			}
		}
	})
}

func TestFastForwardHonoursBound(t *testing.T) {
	// RunBefore(t) never executes, or skips, an instant at or after t.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, ffPeriod)
		p := s.OnRising(clk, "p", func() {})
		p.Sleep()
		compile(s)
		for _, b := range []sim.Time{1, 6 * sim.Nanosecond, 101 * sim.Nanosecond, 105 * sim.Nanosecond, 1000 * sim.Nanosecond} {
			if err := s.RunBefore(b); err != nil {
				t.Fatal(err)
			}
			if s.Now() >= b || s.NextTime() < b {
				t.Fatalf("RunBefore(%v): now %v, next %v", b, s.Now(), s.NextTime())
			}
		}
		if s.SkippedCycles() == 0 {
			t.Fatal("nothing skipped")
		}
	})
}

func TestFastForwardEdgeFunctionsAfterSkip(t *testing.T) {
	// Event() and Rising() between instants read the last executed
	// delta; after a skip that is the last skipped toggle, exactly as if
	// it had run. Bounds land after rising and after falling toggles.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		bounds := []sim.Time{206 * sim.Nanosecond, 411 * sim.Nanosecond, 1001 * sim.Nanosecond, 2006 * sim.Nanosecond}
		got := ffCompare(t, compile, bounds, func(s *Simulator, clk *Signal, log *[]string) {
			p := s.OnRising(clk, "p", func() { *log = append(*log, "p") })
			p.Sleep()
		})
		for _, want := range []string{"event=true rising=true", "event=true rising=false"} {
			if !strings.Contains(got, want) {
				t.Errorf("no state with %q:\n%s", want, got)
			}
		}
	})
}

func TestFastForwardNeedsQuietClock(t *testing.T) {
	// Each case adds one observer of the clock to a design that skips;
	// every one of them must turn skipping off.
	cases := []struct {
		name string
		add  func(s *Simulator, clk *Signal)
	}{
		{"none", func(*Simulator, *Signal) {}},
		{"awake rising watcher", func(s *Simulator, clk *Signal) { s.OnRising(clk, "awake", func() {}) }},
		{"any-edge process", func(s *Simulator, clk *Signal) { s.Process("any", func() {}, clk) }},
		{"wake hook", func(s *Simulator, clk *Signal) {
			q := s.OnRising(s.Bit("other", L0), "q", func() {})
			q.WakeOn(clk)
		}},
		{"gate", func(s *Simulator, clk *Signal) { s.Gate("g", GateNot, s.Bit("nclk", U), clk) }},
		{"probe", func(s *Simulator, clk *Signal) { clk.OnChange(func(sim.Time, LV, LV) {}) }},
		{"second driver", func(s *Simulator, clk *Signal) { clk.Driver("tb").SetZ() }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
				s := New()
				clk := s.Bit("clk", U)
				s.Clock(clk, ffPeriod)
				p := s.OnRising(clk, "p", func() {})
				p.Sleep()
				c.add(s, clk)
				compile(s)
				if err := s.Run(sim.Microsecond); err != nil {
					t.Fatal(err)
				}
				if skipped := s.SkippedCycles(); (skipped > 0) != (c.name == "none") {
					t.Fatalf("skipped %d cycles", skipped)
				}
				// 200 toggles in 1 µs plus the U→0 initialization.
				if s.Events() < 201 {
					t.Fatalf("events = %d, want at least 201", s.Events())
				}
			})
		})
	}
}

func TestRunNeverTerminates(t *testing.T) {
	// A quiet free-running clock fast-forwards to the end of time and
	// stops there, so Run(sim.Never) returns, with every counter at what
	// toggling until then would give.
	forBothKernels(t, func(t *testing.T, compile func(*Simulator)) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, ffPeriod)
		p := s.OnRising(clk, "p", func() {})
		p.Sleep()
		compile(s)
		if err := s.Run(sim.Never); err != nil {
			t.Fatal(err)
		}
		half := ffPeriod / 2
		toggles := uint64((sim.Never - 1) / half) // every toggle strictly before the end of time
		if s.NextTime() != sim.Never {
			t.Fatalf("NextTime = %v after Run(Never)", s.NextTime())
		}
		if s.Events() != toggles+1 || s.TimePoints() != toggles+1 || s.DeltaCycles() != toggles+1 {
			t.Fatalf("events=%d points=%d deltas=%d, want %d each", s.Events(), s.TimePoints(), s.DeltaCycles(), toggles+1)
		}
		if s.Now() != sim.Time(toggles)*half {
			t.Fatalf("now = %v, want the last toggle %v", s.Now(), sim.Time(toggles)*half)
		}
		if s.SkippedCycles() < toggles/2-1 {
			t.Fatalf("skipped %d of %d cycles", s.SkippedCycles(), toggles/2)
		}
	})
}
