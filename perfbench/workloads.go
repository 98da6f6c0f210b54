package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/cosim"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/ipc"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// The switch's byte clock (20 MHz) and the line rate it implies: one
// 53-octet cell per 53 clock cycles.
const (
	clockPeriod = 50 * sim.Nanosecond
	cellTime    = 53 * clockPeriod
)

// Workload sizes. One e1_switch or remote_poisson repetition is one long
// co-verification run; one switch_campaign repetition is one campaign.
const (
	e1CellsPerPort     = 1250 // 5 000 cells at 0.8 load: ~92 k clock cycles
	e1Load             = 0.8
	remoteCellsPerPort = 500 // 2 000 Poisson cells at 0.5 load: ~85 k clock cycles
	remoteLoad         = 0.5
	campaignRuns       = 128 // per repetition; 2 shards take 64 each
	campaignShards     = 2
	clp1Fraction       = 0.25 // seed-drawn CLP bits on the e1 and remote cells
)

// rigPlan is one co-verification run of a fixed switch configuration.
type rigPlan struct {
	// build returns a fresh configuration: new traffic models and, for
	// campaign-shaped runs, new per-run observability handles.
	build   func() coverify.SwitchRigConfig
	horizon sim.Time
}

// e1Plan is the paper's §2 workload: CBR at 0.8 of line rate on all four
// ports, arrivals aligned, direct batched coupling. As in E1, every port
// cycles through its four connections in step, so all four cells of an
// instant head for the same output; the seed draws which output the cycle
// starts at and the cells' CLP bits.
func e1Plan(seed, cellsPerPort uint64) rigPlan {
	order := rotatedVCs(sim.NewRNG(seed))
	interval := sim.Duration(float64(cellTime) / e1Load)
	return rigPlan{
		build: func() coverify.SwitchRigConfig {
			var tr [dut.SwitchPorts]coverify.PortTraffic
			for p := range tr {
				tr[p] = coverify.PortTraffic{Model: &traffic.CBR{Interval: interval},
					VCs: order[p], CLP1: clp1Fraction, Cells: cellsPerPort}
			}
			return coverify.SwitchRigConfig{Seed: seed, Traffic: tr, Batch: true}
		},
		horizon: sim.Time(cellsPerPort+4) * interval,
	}
}

// remotePlan couples the same switch over the in-process pipe with the
// reliability envelope and no faults; Poisson arrivals at 0.5 of line rate
// make each cell its own network instant. The seed draws the arrival
// times, the CLP bits and the connection cycle's starting output.
func remotePlan(seed, cellsPerPort uint64) rigPlan {
	order := rotatedVCs(sim.NewRNG(seed))
	rate := remoteLoad / cellTime.Seconds()
	return rigPlan{
		build: func() coverify.SwitchRigConfig {
			var tr [dut.SwitchPorts]coverify.PortTraffic
			for p := range tr {
				tr[p] = coverify.PortTraffic{Model: traffic.NewPoisson(rate),
					VCs: order[p], CLP1: clp1Fraction, Cells: cellsPerPort}
			}
			return coverify.SwitchRigConfig{Seed: seed, Traffic: tr, Batch: true,
				Remote: true, Reliable: &ipc.ReliableConfig{}}
		},
		// 1.25 × the mean arrival span: at 500 cells per port the last
		// exponential gap lands inside it with a margin of several standard
		// deviations.
		horizon: sim.FromSeconds(1.25 * float64(cellsPerPort) / rate),
	}
}

// rotatedVCs returns every port's connections (coverify.PortVCs order,
// output q on the q-th) rotated by one seed-drawn offset shared by all
// ports, so the ports stay in step.
func rotatedVCs(rng *sim.RNG) [dut.SwitchPorts][]atm.VC {
	k := rng.Intn(dut.SwitchPorts)
	var order [dut.SwitchPorts][]atm.VC
	for p := range order {
		vcs := coverify.PortVCs(p)
		order[p] = append(vcs[k:], vcs[:k]...)
	}
	return order
}

// campaignRunPlan reproduces the rig one run of the "switch" campaign
// elaborates for the given derived run seed: the traffic shape of
// experiments' campaignTraffic drawn from the same stream, and the
// observability of DefaultCampaignConfig (every cell traced, a flight
// recorder, a fresh cover registry). The benchmark uses it where the
// campaign's rigs are out of reach — timing set-up and reading kernel
// handles — and the traced pass checks that these runs add up to exactly
// the cells and cycles the campaign itself reported.
func campaignRunPlan(runSeed uint64) rigPlan {
	rng := sim.NewRNG(runSeed)
	var tr [dut.SwitchPorts]coverify.PortTraffic
	ports := 1 + rng.Intn(dut.SwitchPorts)
	cells := uint64(12 + rng.Intn(17))
	horizon := sim.Time(0)
	for p := 0; p < ports; p++ {
		rate := 60e3 + 60e3*rng.Float64()
		tr[p] = coverify.PortTraffic{Model: traffic.NewCBR(rate), VCs: coverify.PortVCs(p), Cells: cells}
		if h := sim.FromSeconds(float64(cells+2) / rate); h > horizon {
			horizon = h
		}
	}
	rigSeed := rng.Uint64()
	return rigPlan{
		build: func() coverify.SwitchRigConfig {
			return coverify.SwitchRigConfig{Seed: rigSeed, Traffic: tr,
				Batch:    experiments.DefaultCampaignConfig.Batch,
				Cells:    obs.NewCellTracker(experiments.DefaultCampaignConfig.TraceEvery, 0),
				Recorder: obs.NewRecorder(0), Cover: obs.NewCoverRegistry()}
		},
		horizon: horizon + 200*sim.Microsecond,
	}
}

// runSeed is the derived seed of campaign run i, as campaign.Execute
// derives it.
func runSeed(campaignSeed uint64, i int) uint64 { return sim.DeriveSeed(campaignSeed, uint64(i)) }

// campaignSetups times the elaboration of the first n campaign runs' rigs
// (configuration and coverify.NewSwitchRig, up to the first simulated
// event), in seconds.
func campaignSetups(campaignSeed uint64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		plan := campaignRunPlan(runSeed(campaignSeed, i))
		start := time.Now()
		rig := coverify.NewSwitchRig(plan.build())
		out[i] = time.Since(start).Seconds()
		rig.Close()
	}
	return out
}

// rigRep is the outcome of one co-verification repetition.
type rigRep struct {
	setup, run, wall time.Duration // wall = setup + run (+ Close)
	cycles, cells    uint64
	digest           string
	err              error
	teardownRace     bool // Close reported teardownRace's error; see there

	// Traced repetitions only.
	hdlNs                                int64
	procRuns, events, deltas, timePoints uint64
	netEvents                            uint64
	retransmits                          uint64

	// Activity repetitions only.
	act activity
}

// activity is what the HDL kernel's activity profile counted.
type activity struct {
	cycles, events, twoState, runs, portRuns uint64
}

func activityOf(a obs.ActivitySnap, cycles uint64) activity {
	ev, two, runs, _ := a.Totals()
	return activity{cycles: cycles, events: ev, twoState: two, runs: runs, portRuns: portProcessRuns(a)}
}

// rigMode selects how runRig instruments a repetition.
type rigMode int

const (
	untraced rigMode = iota // the production path, untouched
	traced                  // timed wrappers plus the rig's phase profile
	counted                 // the HDL activity profile on, nothing timed
)

// runRig executes one repetition of the plan. A traced repetition wraps
// the layers' public surfaces and attaches a phase profile to the entity
// and the interface process; it leaves the HDL activity profile off,
// because that profile's per-instant publishing would dominate the traced
// time. A counted repetition turns the activity profile on instead: its
// counts are exact and the same in every repetition, so one suffices.
func runRig(plan rigPlan, mode rigMode, t *Tracer, st *couplingStats) rigRep {
	var rep rigRep
	start := time.Now()
	if mode == traced {
		t.Begin(spanRun)
		t.Begin(spanSetup)
	}
	cfg := plan.build()
	switch mode {
	case traced:
		for p := range cfg.Traffic {
			if m := cfg.Traffic[p].Model; m != nil {
				cfg.Traffic[p].Model = &timedModel{inner: m, t: t}
			}
		}
	case counted:
		cfg.Profile = obs.NewRunProfile()
	}
	rig := coverify.NewSwitchRig(cfg)
	var phases *obs.PhaseProfile
	if mode == traced {
		phases = obs.NewPhaseProfile()
		rig.Entity.InstrumentProfile(phases)
		rig.Iface.InstrumentProfile(phases)
		instrumentRig(rig, t, phases, st)
		rep.setup = t.End()
	} else {
		rep.setup = time.Since(start)
	}
	runStart := time.Now()
	err := rig.Run(plan.horizon)
	rep.run = time.Since(runStart)
	if cerr := rig.Close(); err == nil && cerr != nil {
		if teardownRace(cerr) {
			rep.teardownRace = true
		} else {
			err = fmt.Errorf("close: %w", cerr)
		}
	}
	if mode == traced {
		t.End()
	}
	rep.wall = time.Since(start)
	rep.cycles = rig.ClockCycles()
	rep.cells = rig.Cmp.Matched
	if err != nil {
		rep.err = fmt.Errorf("run: %w", err)
	} else {
		rep.err = checkRig(rig, &cfg)
	}
	rep.digest = rigDigest(rig, &cfg)
	switch mode {
	case traced:
		rep.hdlNs = phases.Ns(obs.PhaseHDL)
		rep.procRuns, rep.events = rig.HDL.ProcessRuns(), rig.HDL.Events()
		rep.deltas, rep.timePoints = rig.HDL.DeltaCycles(), rig.HDL.TimePoints()
		rep.netEvents = rig.Net.Sched.Executed()
		if rig.RelClient != nil {
			rep.retransmits = rig.RelClient.Stats().Retransmits
		}
	case counted:
		rep.act = activityOf(cfg.Profile.Activity(), rep.cycles)
	}
	return rep
}

// teardownRace reports whether a Close error is the entity server being
// cut off while its last reply waited for the reliability envelope's
// acknowledgement. The client already holds that reply (rig.Run returned
// without error), so the run is complete; cosim.EntityServer.Serve reports
// the client's close as an error on its send path although it reports the
// same close on its receive path as a clean end. The benchmark counts these
// and reports them rather than failing the repetition: runRig asks only
// after rig.Run succeeded, and checkRig and the outcome digest still judge
// every cell. Any other Close error fails the repetition.
func teardownRace(err error) bool {
	var ce *cosim.CouplingError
	return errors.As(err, &ce) && ce.Op == "send" && ce.Class == cosim.ClassClosed
}

// checkRig is the per-repetition correctness gate: the comparison engine
// saw every offered cell come back exactly once and unaltered, nothing is
// outstanding, and the device dropped nothing.
func checkRig(rig *coverify.SwitchRig, cfg *coverify.SwitchRigConfig) error {
	var want uint64
	for _, tr := range cfg.Traffic {
		if tr.Model != nil {
			want += tr.Cells
		}
	}
	switch {
	case !rig.Cmp.Clean():
		return fmt.Errorf("comparison not clean: %s", rig.Cmp.Summary())
	case len(rig.Cmp.Outstanding()) != 0:
		return fmt.Errorf("%d cells outstanding", len(rig.Cmp.Outstanding()))
	case rig.Offered != want:
		return fmt.Errorf("offered %d cells, configured %d", rig.Offered, want)
	case rig.Cmp.Matched != rig.Offered:
		return fmt.Errorf("matched %d of %d offered cells", rig.Cmp.Matched, rig.Offered)
	case rig.DUT.Drops() != 0:
		return fmt.Errorf("device dropped %d cells", rig.DUT.Drops())
	}
	return nil
}

// rigDigest renders the run's simulated outcome: cells offered per input
// port, forwarded and matched per output port, clock cycles and the
// hw.latency summary. It holds no host time and no kernel work counter,
// so it is identical across repetitions, traced or not.
func rigDigest(rig *coverify.SwitchRig, cfg *coverify.SwitchRigConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d in=[", rig.Offered)
	for p, tr := range cfg.Traffic {
		if p > 0 {
			b.WriteByte(' ')
		}
		n := tr.Cells
		if tr.Model == nil {
			n = 0
		}
		fmt.Fprintf(&b, "%d", n)
	}
	fmt.Fprintf(&b, "] fwd=%v matched=%d mismatches=%d cycles=%d", rig.Ref.Forwarded,
		rig.Cmp.Matched, len(rig.Cmp.Mismatches()), rig.ClockCycles())
	lat := rig.Probes.Get("hw.latency").Stats()
	fmt.Fprintf(&b, " latency n=%d min=%s max=%s mean=%s", lat.N(),
		fmtFloat(lat.Min()), fmtFloat(lat.Max()), fmtFloat(lat.Mean()))
	return b.String()
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// portProcessRuns sums the runs of the coupling's cell-port processes
// (castanet_tx*, castanet_rx*); every other process belongs to the DUT.
func portProcessRuns(a obs.ActivitySnap) uint64 {
	var n uint64
	for _, p := range a.Processes {
		if strings.HasPrefix(p.Name, "castanet_tx") || strings.HasPrefix(p.Name, "castanet_rx") {
			n += p.Runs
		}
	}
	return n
}

// campaignRep is the outcome of one switch_campaign repetition.
type campaignRep struct {
	wall     time.Duration
	runs     int
	failed   int
	runWalls []float64 // seconds, from campaign.Result.Wall
	cycles   uint64
	cells    uint64
	digest   string
	err      error

	shardBusy []time.Duration // traced: Σ Cell.Run time per shard
	act       activity        // counted: the campaign's merged activity profile
}

// runCampaign executes the "switch" campaign matrix the way the CLI's
// -campaign switch -coverage runs it. A traced campaign wraps every
// Cell.Run to record its run span and its shard's busy time; a counted one
// turns the campaign's activity profile on.
func runCampaign(seed uint64, runs, shards int, mode rigMode, t *Tracer) campaignRep {
	var rep campaignRep
	matrix, err := experiments.CampaignMatrix("switch")
	if err != nil {
		rep.err = err
		return rep
	}
	if mode == traced {
		var mu sync.Mutex
		rep.shardBusy = make([]time.Duration, shards)
		for i := range matrix {
			inner := matrix[i].Run
			matrix[i].Run = func(ctx context.Context, r *campaign.Run) error {
				start := time.Now()
				err := inner(ctx, r)
				d := time.Since(start)
				t.recordRoot(spanRun, uint32(r.Index), start, d)
				mu.Lock()
				rep.shardBusy[r.Shard] += d
				mu.Unlock()
				return err
			}
		}
	}
	spec := campaign.Spec{
		Name: "switch", Seed: seed, Runs: runs, Shards: shards, Matrix: matrix,
		Policy:   campaign.Policy{QuarantineAfter: 3}, // the CLI's default
		Coverage: true,
		Profile:  mode == counted,
		OnResult: func(res campaign.Result) {
			rep.runWalls = append(rep.runWalls, res.Wall.Seconds())
		},
	}
	start := time.Now()
	sum, err := campaign.Execute(context.Background(), spec)
	rep.wall = time.Since(start)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.runs = sum.Completed + sum.Failed + sum.Skipped + sum.Quarantined
	rep.failed = rep.runs - sum.Completed
	for _, st := range sum.Stats {
		switch st.Name {
		case "cycles":
			rep.cycles = uint64(st.Sum)
		case "cells":
			rep.cells = uint64(st.Sum)
		}
	}
	rep.act = activityOf(sum.Activity, rep.cycles)
	// The digest is the deterministic campaign file minus its activity
	// section: kernel work counters are per-layer metrics that kernel
	// changes move on purpose, and only a counted campaign collects them.
	d := *sum
	d.Activity = obs.ActivitySnap{}
	var b strings.Builder
	if err := d.WriteDigest(&b); err != nil {
		rep.err = err
	}
	rep.digest = b.String()
	if rep.err == nil && (!sum.Clean() || sum.Failed != 0 || sum.Completed != runs) {
		rep.err = fmt.Errorf("campaign not clean: completed=%d failed=%d skipped=%d quarantined=%d\n%s",
			sum.Completed, sum.Failed, sum.Skipped, sum.Quarantined, sum.Digest())
	}
	return rep
}

// shardCount is the campaign's worker count: two, as rig-smoke runs it,
// but never more than the host's processors.
func shardCount() int {
	if n := runtime.GOMAXPROCS(0); n < campaignShards {
		return n
	}
	return campaignShards
}
