package hdl

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"castanet/internal/sim"
)

// This file is the compiled≡event-driven differential harness. A byte
// program (random bytes are always a valid program) elaborates a netlist —
// input signals, structural gates, clocked registers, rising-edge
// processes that sleep and are woken, multi-driver resolution, and a
// stimulus script that injects two-state values as well
// as X/Z/weak/uninitialized vectors — onto a fresh simulator. The same
// program runs once on the plain nine-value event kernel and once with
// Compile(), and every observable must agree: the full VCD byte stream,
// the per-signal waveform event-for-event (time, global delta index, old
// and new value), the kernel counters, and the activity profile.
// FuzzKernelEquivalence drives the same harness from the fuzzer.

const (
	diffClockPeriod = 10 * sim.Nanosecond
	diffMaxSignals  = 32
	diffMaxGates    = 64
	diffMaxStims    = 128
)

type diffReader struct {
	b []byte
	i int
}

func (r *diffReader) more() bool { return r.i < len(r.b) }

func (r *diffReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// diffLogicTable biases stimulus toward the interesting corners: mostly
// strong two-state with every impure value reachable.
var diffLogicTable = [16]Logic{L0, L1, L0, L1, L0, L1, X, Z, W, WL, WH, U, DC, L1, L0, X}

// buildDiffDesign elaborates the byte program onto s. The elaboration is a
// pure function of data, so running it onto two simulators yields
// structurally identical designs with identical stimulus schedules.
func buildDiffDesign(data []byte, s *Simulator, clk *Signal) (all []*Signal, horizon sim.Time) {
	r := &diffReader{b: data}
	type input struct {
		sig *Signal
		drv *Driver
	}
	var ins []input
	all = append(all, clk)
	byWidth := map[int][]*Signal{1: {clk}}
	addSig := func(g *Signal) {
		all = append(all, g)
		byWidth[g.width] = append(byWidth[g.width], g)
	}
	gates, stims := 0, 0
	horizon = 20 * diffClockPeriod
	note := func(at sim.Time) {
		if at+20*diffClockPeriod > horizon {
			horizon = at + 20*diffClockPeriod
		}
	}
	makeLV := func(width int, kind byte) LV {
		switch kind % 4 {
		case 0:
			return NewLV(width, X)
		case 1:
			return NewLV(width, Z)
		default:
			v := make(LV, width)
			for i := range v {
				v[i] = diffLogicTable[r.next()%16]
			}
			return v
		}
	}
	for r.more() {
		switch r.next() % 9 {
		case 0: // new stimulus input
			if len(ins) >= diffMaxSignals {
				continue
			}
			w := int(r.next()%16) + 1
			g := s.Signal(fmt.Sprintf("in%d", len(ins)), w, U)
			d := g.Driver("stim")
			ins = append(ins, input{g, d})
			addSig(g)
		case 1, 2: // structural gate
			if gates >= diffMaxGates || len(all) == 0 {
				continue
			}
			op := GateOp(r.next() % 8)
			base := all[int(r.next())%len(all)]
			peers := byWidth[base.width]
			n := 1
			if op != GateBuf && op != GateNot {
				n = 2 + int(r.next()%2)
			}
			gin := make([]*Signal, n)
			for i := range gin {
				gin[i] = peers[int(r.next())%len(peers)]
			}
			out := s.Signal(fmt.Sprintf("g%d", gates), base.width, U)
			s.Gate(fmt.Sprintf("gate%d", gates), op, out, gin...)
			addSig(out)
			gates++
		case 3: // clocked register
			if len(all) == 0 || len(all) >= 2*diffMaxSignals {
				continue
			}
			d := all[int(r.next())%len(all)]
			reg := NewReg(s, fmt.Sprintf("r%d", len(all)), clk, d, nil, nil)
			addSig(reg.Q)
		case 4, 5: // two-state stimulus
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			u := uint64(r.next()) | uint64(r.next())<<8
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { in.drv.SetUint(u) })
			stims++
		case 6: // impure stimulus: X/Z/weak/U/DC vectors
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			v := makeLV(in.sig.width, r.next())
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { in.drv.Set(v) })
			stims++
		case 7: // second driver: multi-driver resolution on an input
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			d2 := in.sig.Driver("stim2")
			v := makeLV(in.sig.width, r.next())
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { d2.Set(v) })
			s.Schedule(at+3*diffClockPeriod, func() { d2.Set(NewLV(in.sig.width, Z)) })
			stims++
		case 8: // rising-edge register that sleeps every few edges and is
			// woken by events on another signal and by a timed Wake
			if len(all) >= 2*diffMaxSignals {
				continue
			}
			d := all[int(r.next())%len(all)]
			wake := all[int(r.next())%len(all)]
			every := int(r.next()%4) + 1
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			name := fmt.Sprintf("s%d", len(all))
			q := s.Signal(name+"_q", d.width, U)
			drv := q.Driver(name)
			var p *Process
			n := 0
			p = s.OnRising(clk, name, func() {
				drv.Set(d.Val().Clone())
				if n++; n%every == 0 {
					p.Sleep()
				}
			})
			p.WakeOn(wake)
			note(sim.Time(at))
			s.Schedule(at, p.Wake)
			addSig(q)
		}
	}
	return all, horizon
}

// diffResult captures every observable the two kernels must agree on.
type diffResult struct {
	vcd     string
	waves   map[string][]string
	events  uint64
	runs    uint64
	deltas  uint64
	points  uint64
	prof    interface{}
	planErr error
}

func runDiffKernel(data []byte, compiled bool) *diffResult {
	s := New()
	s.EnableProfile()
	clk := s.Bit("clk", U)
	s.Clock(clk, diffClockPeriod)
	all, horizon := buildDiffDesign(data, s, clk)
	res := &diffResult{waves: map[string][]string{}}
	for _, g := range all {
		g := g
		g.OnChange(func(now sim.Time, old, new LV) {
			res.waves[g.name] = append(res.waves[g.name],
				fmt.Sprintf("%d@%d %s->%s", now, s.DeltaCycles(), old, new))
		})
	}
	var vcdBuf bytes.Buffer
	vcd := NewVCD(&vcdBuf, s)
	if compiled {
		if _, err := s.Compile(); err != nil {
			res.planErr = err
			return res
		}
	}
	if err := s.Run(horizon); err != nil {
		res.planErr = err
		return res
	}
	vcd.Close()
	res.vcd = vcdBuf.String()
	res.events = s.Events()
	res.runs = s.ProcessRuns()
	res.deltas = s.DeltaCycles()
	res.points = s.TimePoints()
	res.prof = s.Profile().Snapshot()
	return res
}

// compareKernels runs the program through both kernels and reports the
// first divergence, or "" when they agree.
func compareKernels(data []byte) string {
	ev := runDiffKernel(data, false)
	cp := runDiffKernel(data, true)
	if (ev.planErr == nil) != (cp.planErr == nil) {
		return fmt.Sprintf("error divergence: event=%v compiled=%v", ev.planErr, cp.planErr)
	}
	if ev.planErr != nil {
		return "" // both failed identically (e.g. delta overflow)
	}
	if ev.events != cp.events || ev.runs != cp.runs || ev.deltas != cp.deltas || ev.points != cp.points {
		return fmt.Sprintf("counter divergence: event(ev=%d runs=%d deltas=%d points=%d) compiled(ev=%d runs=%d deltas=%d points=%d)",
			ev.events, ev.runs, ev.deltas, ev.points, cp.events, cp.runs, cp.deltas, cp.points)
	}
	if len(ev.waves) != len(cp.waves) {
		return fmt.Sprintf("wave signal count divergence: %d vs %d", len(ev.waves), len(cp.waves))
	}
	for name, evw := range ev.waves {
		cpw := cp.waves[name]
		if len(evw) != len(cpw) {
			return fmt.Sprintf("signal %s: %d events vs %d compiled", name, len(evw), len(cpw))
		}
		for i := range evw {
			if evw[i] != cpw[i] {
				return fmt.Sprintf("signal %s event %d: event=%q compiled=%q", name, i, evw[i], cpw[i])
			}
		}
	}
	if ev.vcd != cp.vcd {
		return fmt.Sprintf("VCD divergence (%d vs %d bytes)", len(ev.vcd), len(cp.vcd))
	}
	if !reflect.DeepEqual(ev.prof, cp.prof) {
		return fmt.Sprintf("profile divergence:\nevent:    %+v\ncompiled: %+v", ev.prof, cp.prof)
	}
	return ""
}

// TestKernelEquivalence is the waveform property test of ISSUE 10: at the
// three pinned seeds (the kernel-equivalence CI job runs exactly these
// under -race) plus a handful of extras, a random netlist and stimulus
// program must produce byte-identical observables on both kernels.
func TestKernelEquivalence(t *testing.T) {
	seeds := []int64{11, 23, 47} // pinned: CI contract
	if !testing.Short() {
		seeds = append(seeds, 101, 211, 307, 401, 503)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 4; round++ {
				data := make([]byte, 200+rng.Intn(600))
				rng.Read(data)
				if diff := compareKernels(data); diff != "" {
					t.Fatalf("seed %d round %d: %s", seed, round, diff)
				}
			}
		})
	}
}

// TestKernelEquivalencePurityChurn drives a program that repeatedly
// demotes and promotes regions (alternating X and two-state stimulus on
// the same inputs) — the guard boundary is where a fast path would lie.
func TestKernelEquivalencePurityChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 6; round++ {
		var prog []byte
		// A few inputs and a pile of gates, then alternating stimulus.
		for i := 0; i < 4; i++ {
			prog = append(prog, 0, byte(rng.Intn(8))) // SIG
		}
		for i := 0; i < 12; i++ {
			prog = append(prog, 1, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				prog = append(prog, 6, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))) // impure
			} else {
				prog = append(prog, 4, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))) // two-state
			}
		}
		if diff := compareKernels(prog); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
	}
}
