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

// TestSwitchRigProcessRunsPinned pins the HDL kernel's deterministic work
// counter on the switch rig at a fixed seed: process body executions per
// clock cycle. Clocked processes are triggered by the rising edge only
// (hdl.OnRising) and idle port writers and readers sleep, so a change
// that re-adds both-edge wake-ups or keeps idle ports running moves this
// number and fails here. The counter is identical on both kernels.
func TestSwitchRigProcessRunsPinned(t *testing.T) {
	const wantRuns, wantCycles = 1295354, 98655 // 13.13 per cycle; 58.0 with both-edge wake-ups
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
		runs, cycles := rig.HDL.ProcessRuns(), rig.ClockCycles()
		t.Logf("NoCompiled=%v: %d process runs over %d cycles = %.3f per cycle",
			noCompiled, runs, cycles, float64(runs)/float64(cycles))
		if runs != wantRuns || cycles != wantCycles {
			t.Errorf("NoCompiled=%v: %d process runs over %d cycles, want %d over %d",
				noCompiled, runs, cycles, wantRuns, wantCycles)
		}
	}
}
