package coverify

import (
	"bytes"
	"fmt"
	"testing"

	"castanet/internal/hdl"
	"castanet/internal/sim"
)

// These tests lift the kernel-equivalence property (internal/hdl's
// differential harness) to the full rigs: with identical configuration,
// a run on the compiled bit-parallel data plane and a run on the plain
// nine-value event kernel must produce byte-identical VCD waveforms,
// identical kernel counters and identical end-of-run reports. This is
// the contract that lets the rigs enable -compiled by default without
// touching a single golden digest.

type rigKernelObs struct {
	vcd    string
	events uint64
	runs   uint64
	deltas uint64
	points uint64
	report string
}

func (o rigKernelObs) counters() string {
	return fmt.Sprintf("events=%d runs=%d deltas=%d points=%d", o.events, o.runs, o.deltas, o.points)
}

func diffRigObs(t *testing.T, name string, ev, cp rigKernelObs) {
	t.Helper()
	if ev.counters() != cp.counters() {
		t.Errorf("%s: counter divergence:\n event:    %s\n compiled: %s", name, ev.counters(), cp.counters())
	}
	if ev.report != cp.report {
		t.Errorf("%s: report divergence:\n event:    %s\n compiled: %s", name, ev.report, cp.report)
	}
	if ev.vcd != cp.vcd {
		t.Errorf("%s: VCD divergence (%d vs %d bytes)", name, len(ev.vcd), len(cp.vcd))
	}
}

// TestRTLRigKernelEquivalence runs the pure-RTL regression bench both
// ways, watching every signal in the design.
func TestRTLRigKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(noCompiled bool) rigKernelObs {
				rig := NewRTLRig(SwitchRigConfig{
					Seed:       seed,
					Traffic:    lightTraffic(10 + seed%7),
					NoCompiled: noCompiled,
				})
				var buf bytes.Buffer
				vcd := hdl.NewVCD(&buf, rig.HDL)
				if err := rig.Run(); err != nil {
					t.Fatal(err)
				}
				vcd.Close()
				if rig.HDL.Compiled() == noCompiled {
					t.Fatalf("Compiled() = %v with NoCompiled=%v", rig.HDL.Compiled(), noCompiled)
				}
				return rigKernelObs{
					vcd:    buf.String(),
					events: rig.HDL.Events(),
					runs:   rig.HDL.ProcessRuns(),
					deltas: rig.HDL.DeltaCycles(),
					points: rig.HDL.TimePoints(),
					report: rig.Report(),
				}
			}
			diffRigObs(t, "rtlrig", run(true), run(false))
		})
	}
}

// TestSwitchRigKernelEquivalence runs the co-simulation rig both ways —
// the network scheduler, coupling and comparison engine all downstream
// of the kernel under test — with the port-waveform VCD attached.
func TestSwitchRigKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(noCompiled bool) rigKernelObs {
				var buf bytes.Buffer
				rig := NewSwitchRig(SwitchRigConfig{
					Seed:       seed,
					Traffic:    lightTraffic(15),
					Waveforms:  &buf,
					NoCompiled: noCompiled,
				})
				if err := rig.Run(4 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				if len(rig.Cmp.Mismatches()) != 0 {
					t.Fatalf("mismatches on NoCompiled=%v: %v", noCompiled, rig.Cmp.Mismatches())
				}
				return rigKernelObs{
					vcd:    buf.String(),
					events: rig.HDL.Events(),
					runs:   rig.HDL.ProcessRuns(),
					deltas: rig.HDL.DeltaCycles(),
					points: rig.HDL.TimePoints(),
					report: rig.Report(),
				}
			}
			diffRigObs(t, "switchrig", run(true), run(false))
		})
	}
}

// TestSwitchRigFastForwardEquivalence runs the switch rig on both
// kernels, once unprobed, where the kernel fast-forwards idle clock
// cycles, and once with a no-op OnChange probe on clk, which turns the
// fast-forward off. All four runs must agree on every kernel counter, the
// final time, the report, the activity profile and the waveform of every
// signal but the clock. TestSwitchRigKernelEquivalence dumps clk and so
// never skips.
func TestSwitchRigFastForwardEquivalence(t *testing.T) {
	type result struct {
		obs     rigKernelObs
		now     sim.Time
		act     string
		skipped uint64
	}
	run := func(noCompiled, probe bool) result {
		rig := NewSwitchRig(SwitchRigConfig{
			Seed:       42,
			Traffic:    lightTraffic(15),
			Batch:      true,
			NoCompiled: noCompiled,
		})
		prof := rig.HDL.EnableProfile()
		var dump []*hdl.Signal
		for _, g := range rig.HDL.Signals() {
			if g.Name() == "clk" {
				if probe {
					g.OnChange(func(sim.Time, hdl.LV, hdl.LV) {})
				}
				continue
			}
			dump = append(dump, g)
		}
		var buf bytes.Buffer
		vcd := hdl.NewVCD(&buf, rig.HDL, dump...)
		if err := rig.Run(4 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		vcd.Close()
		h := rig.HDL
		return result{
			obs: rigKernelObs{
				vcd:    buf.String(),
				events: h.Events(),
				runs:   h.ProcessRuns(),
				deltas: h.DeltaCycles(),
				points: h.TimePoints(),
				report: rig.Report(),
			},
			now:     h.Now(),
			act:     fmt.Sprint(prof.Snapshot()),
			skipped: h.SkippedCycles(),
		}
	}
	ref := run(true, true)
	if ref.skipped != 0 {
		t.Fatalf("probed clock: %d cycles skipped, want 0", ref.skipped)
	}
	for _, c := range []struct {
		name              string
		noCompiled, probe bool
	}{
		{"event/skip", true, false},
		{"compiled/skip", false, false},
		{"compiled/probed", false, true},
	} {
		got := run(c.noCompiled, c.probe)
		diffRigObs(t, c.name, ref.obs, got.obs)
		if got.now != ref.now {
			t.Errorf("%s: now %v, want %v", c.name, got.now, ref.now)
		}
		if got.act != ref.act {
			t.Errorf("%s: activity profile diverges:\n got:  %s\n want: %s", c.name, got.act, ref.act)
		}
		if skipping := got.skipped > 0; skipping == c.probe {
			t.Errorf("%s: %d cycles skipped", c.name, got.skipped)
		}
	}
}

// TestSwitchRigProcessRunsPinned pins the HDL kernel's deterministic work
// counters on the switch rig at a fixed seed. Clocked processes are
// triggered by the rising edge only (hdl.OnRising), and idle port writers
// and readers and the switch's control processes sleep, so a change that
// re-adds both-edge wake-ups or keeps an idle process running moves the
// process-run count and fails here. Signal events and time points are
// the same as when every idle cycle executed. The fast-forward must cover
// at least half the cycles: one switch process left awake on an idle
// switch silently turns it off. The counters are identical on both
// kernels.
func TestSwitchRigProcessRunsPinned(t *testing.T) {
	const (
		wantRuns, wantCycles = 17399, 98655 // 0.176 per cycle; 13.13 with the switch always awake
		wantDeltas           = 201708       // 295968 while _ctl re-drove req low every cycle
		wantEvents           = 205043
		wantPoints           = 197312
	)
	for _, noCompiled := range []bool{false, true} {
		rig := NewSwitchRig(SwitchRigConfig{
			Seed:       1,
			Traffic:    lightTraffic(15),
			Batch:      true,
			NoCompiled: noCompiled,
		})
		if err := rig.Run(4 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		h := rig.HDL
		runs, cycles, skipped := h.ProcessRuns(), rig.ClockCycles(), h.SkippedCycles()
		t.Logf("NoCompiled=%v: %d process runs over %d cycles = %.3f per cycle, %d cycles skipped",
			noCompiled, runs, cycles, float64(runs)/float64(cycles), skipped)
		if runs != wantRuns || cycles != wantCycles {
			t.Errorf("NoCompiled=%v: %d process runs over %d cycles, want %d over %d",
				noCompiled, runs, cycles, wantRuns, wantCycles)
		}
		if d, e, p := h.DeltaCycles(), h.Events(), h.TimePoints(); d != wantDeltas || e != wantEvents || p != wantPoints {
			t.Errorf("NoCompiled=%v: deltas=%d events=%d points=%d, want %d %d %d",
				noCompiled, d, e, p, wantDeltas, wantEvents, wantPoints)
		}
		if 2*skipped < cycles {
			t.Errorf("NoCompiled=%v: %d of %d cycles skipped, want at least half", noCompiled, skipped, cycles)
		}
	}
}
