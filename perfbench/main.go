// Command perfbench is the CASTANET benchmark: it runs one co-verification
// workload with the production defaults the castanet CLI uses (batched
// coupling, compiled HDL kernel, experiments.DefaultCampaignConfig), checks
// every repetition's verdict, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	go run . --workload e1_switch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no tracing. With
// --trace 1 it runs an untraced pass and then a traced pass of equal
// length, and reports the per-layer metrics of the traced pass: spans are
// recorded around the calls the benchmark makes into each layer's public
// surface (coupling, codecs, traffic models, reference-model hooks, rig
// set-up, campaign runs), kept in memory and written to --spans at the end.
// run.sh builds it inside the checkout and runs it; see NOTES.md for the
// workloads, the metric definitions and the layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names the unit of every metric the benchmark can print.
var units = map[string]string{
	"clk_cycles_per_sec":   "1/s",
	"cells_per_sec":        "1/s",
	"runs_per_sec":         "1/s",
	"run_wall_p90_s":       "s",
	"setup_s":              "s",
	"alloc_bytes_per_cell": "B",
	"peak_rss_mb":          "MB",

	"hdl.busy_frac":                       "frac",
	"hdl.ns_per_cycle":                    "ns",
	"hdl.two_state_frac":                  "frac",
	"hdl.process_runs_per_cycle":          "count",
	"hdl.signal_events_per_cycle":         "count",
	"hdl.delta_cycles_per_cycle":          "count",
	"hdl.time_points_per_cycle":           "count",
	"mapping.port_process_runs_per_cycle": "count",
	"dut.process_runs_per_cycle":          "count",
	"cosim.coupling_busy_frac":            "frac",
	"cosim.transport_frac":                "frac",
	"cosim.unit_p50_us":                   "us",
	"cosim.unit_p90_us":                   "us",
	"cosim.units_per_cell":                "count",
	"cosim.msgs_per_unit":                 "count",
	"ipc.retransmits_per_unit":            "count",
	"mapping.encode_ns_per_cell":          "ns",
	"mapping.decode_ns_per_cell":          "ns",
	"netsim.self_frac":                    "frac",
	"netsim.events_per_cell":              "count",
	"traffic.ns_per_cell":                 "ns",
	"refmodel.ns_per_cell":                "ns",
	"coverify.setup_ms":                   "ms",
	"campaign.engine_frac":                "frac",
	"campaign.shard_skew":                 "ratio",
	"runtime.gc_cpu_frac":                 "frac",
	"trace_overhead_frac":                 "frac",
}

// outcome is what a workload reports back to main.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []error
	// teardownRaces counts repetitions whose Close hit the server's
	// shutdown race (see teardownRace); they are reported, not failed.
	teardownRaces int
	info          map[string]any
}

type workloadFunc func(seed uint64, seconds time.Duration, trace bool, spans string) outcome

var workloadFuncs = map[string]workloadFunc{
	"e1_switch": func(seed uint64, d time.Duration, trace bool, spans string) outcome {
		return rigWorkload(e1Plan(seed, e1CellsPerPort), d, trace, spans)
	},
	"remote_poisson": func(seed uint64, d time.Duration, trace bool, spans string) outcome {
		return rigWorkload(remotePlan(seed, remoteCellsPerPort), d, trace, spans)
	},
	"switch_campaign": campaignWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: e1_switch, remote_poisson or switch_campaign")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measuring time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced pass")
	spans := fs.String("spans", "", "span dump path for --trace 1 (default .bench_build/spans/<workload>.tsv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {e1_switch|remote_poisson|switch_campaign} --seconds >= 1 --trace {0|1}\n")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", *workload+".tsv")
	}

	out := w(*seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(out.metrics))}
	for name, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.errs = append(out.errs, fmt.Errorf("metric %s is %v", name, v))
			res.Correct = false
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	for _, err := range out.errs {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
	}
	if out.teardownRaces > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d repetitions ended with the entity server's send cut off by Close (counted, not failed)\n",
			*workload, out.teardownRaces)
	}
	info := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"teardown_races": out.teardownRaces,
		"host": map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH},
	}
	for k, v := range out.info {
		info[k] = v
	}
	if err := printJSON(stdout, map[string]any{"info": info}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Repetitions per pass at the least, however short --seconds is.
const (
	minRigReps      = 3
	minCampaignReps = 2
	setupSamples    = 100 // campaign-run elaborations timed for setup_s
)

// passClock decides when a pass has measured long enough.
type passClock struct {
	start time.Time
	limit time.Duration
	min   int
}

func (c passClock) more(done int) bool {
	return done < c.min || time.Since(c.start) < c.limit
}

// memPoint is a snapshot of the allocation and GC CPU counters.
type memPoint struct {
	totalAlloc      uint64
	gcCPU, totalCPU float64
}

func readMem() memPoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	p := memPoint{totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return p
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector between two snapshots.
func gcFrac(a, b memPoint) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digestSet holds the first repetition digest; every later repetition of
// the seed, traced or not, must produce the same one.
type digestSet struct {
	first string
	seen  bool
}

func (d *digestSet) add(s string) bool {
	if !d.seen {
		d.first, d.seen = s, true
	}
	return s == d.first
}

// rigPass runs repetitions of plan until the clock says stop.
type rigPass struct {
	reps  []rigRep
	wall  time.Duration
	mem   [2]memPoint
	cells uint64
}

func runRigPass(plan func(i int) rigPlan, clock passClock, mode rigMode, t *Tracer, st *couplingStats) rigPass {
	var p rigPass
	p.mem[0] = readMem()
	start := time.Now()
	for clock.more(len(p.reps)) {
		if t != nil {
			t.run = uint32(len(p.reps))
		}
		rep := runRig(plan(len(p.reps)), mode, t, st)
		p.reps = append(p.reps, rep)
		p.cells += rep.cells
	}
	p.wall = time.Since(start)
	p.mem[1] = readMem()
	return p
}

// check folds the pass's repetition errors and digests into the outcome.
// A nil digest set skips the digest comparison (campaign probe runs each
// replay a different campaign run).
func (p *rigPass) check(out *outcome, digests *digestSet, label string) {
	for i, r := range p.reps {
		out.attempted++
		if r.teardownRace {
			out.teardownRaces++
		}
		bad := false
		if r.err != nil {
			out.errs = append(out.errs, fmt.Errorf("%s repetition %d: %w", label, i, r.err))
			bad = true
		}
		if digests != nil && !digests.add(r.digest) {
			out.errs = append(out.errs, fmt.Errorf("%s repetition %d: outcome digest differs:\n  got  %s\n  want %s",
				label, i, r.digest, digests.first))
			bad = true
		}
		if bad {
			out.failed++
		}
	}
}

func (p *rigPass) medianRun() float64 {
	runs := make([]float64, len(p.reps))
	for i, r := range p.reps {
		runs[i] = r.run.Seconds()
	}
	return median(runs)
}

// rigProcs is the GOMAXPROCS of the single-rig workloads. Their coupling
// alternates strictly, so exactly one goroutine works at any moment (the
// interface process, or the entity server while the client waits); one P
// loses no parallelism and keeps every client/server handoff on it. With
// two Ps the cross-P wake-ups made remote_poisson's rate swing by ±25 %
// from one repetition to the next on a 2-vCPU host.
const rigProcs = 1

func rigWorkload(plan rigPlan, seconds time.Duration, trace bool, spansPath string) outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(rigProcs))
	out := outcome{info: map[string]any{}}
	same := func(int) rigPlan { return plan }
	var digests digestSet
	limit := seconds
	if trace {
		limit = seconds / 2
	}
	base := runRigPass(same, passClock{start: time.Now(), limit: limit, min: minRigReps}, untraced, nil, nil)
	base.check(&out, &digests, "untraced")
	out.info["load"] = map[string]any{"processes": 1, "gomaxprocs": runtime.GOMAXPROCS(0), "shards": 1, "pipes": 1}
	out.info["digest"] = digests.first

	if !trace {
		// Rates are the 10th percentile over the repetitions (the rate nine
		// repetitions in ten reach), times the 90th. On a shared host the
		// per-repetition speed has a steady floor plus bursts up to ~50 %
		// faster whose share varies from run to run; statistics on the
		// floor side repeat across runs, medians flip between the two modes
		// (ten 30 s runs: quartile spread up to 0.31 for the median wall,
		// ~0.1 for the p90).
		var cps, lps, rps, walls, setups []float64
		for _, r := range base.reps {
			cps = append(cps, float64(r.cycles)/r.run.Seconds())
			lps = append(lps, float64(r.cells)/r.run.Seconds())
			rps = append(rps, 1/r.wall.Seconds())
			walls = append(walls, r.wall.Seconds())
			setups = append(setups, r.setup.Seconds())
		}
		out.metrics = map[string]float64{
			"clk_cycles_per_sec":   percentile(cps, 0.1),
			"cells_per_sec":        percentile(lps, 0.1),
			"runs_per_sec":         percentile(rps, 0.1),
			"run_wall_p90_s":       percentile(walls, 0.9),
			"setup_s":              percentile(setups, 0.9),
			"alloc_bytes_per_cell": float64(base.mem[1].totalAlloc-base.mem[0].totalAlloc) / float64(base.cells),
			"peak_rss_mb":          peakRSSMB(),
		}
		out.info["samples"] = map[string]any{"repetitions": len(base.reps)}
		return out
	}

	t := newTracer()
	st := &couplingStats{}
	tr := runRigPass(same, passClock{start: time.Now(), limit: limit, min: minRigReps}, traced, t, st)
	tr.check(&out, &digests, "traced")
	cnt := runRigPass(same, passClock{min: 1}, counted, nil, nil)
	cnt.check(&out, &digests, "counted")
	out.metrics = rigLayers(tr, cnt.reps[0].act, t, st)
	out.metrics["runtime.gc_cpu_frac"] = gcFrac(base.mem[0], base.mem[1])
	out.metrics["trace_overhead_frac"] = tr.medianRun()/base.medianRun() - 1
	out.info["samples"] = map[string]any{"untraced_repetitions": len(base.reps),
		"traced_repetitions": len(tr.reps), "counted_repetitions": len(cnt.reps), "coupling_units": st.units}
	out.info["spans"] = spansPath
	if err := t.WriteTSV(spansPath); err != nil {
		out.errs = append(out.errs, fmt.Errorf("writing spans: %w", err))
	}
	return out
}

// rigLayers derives the per-layer metrics of a traced rig pass and the
// activity counts of a counted one. W, the base of every *_frac, is the
// summed rig.Run wall time of the traced pass (set-up excluded).
func rigLayers(p rigPass, act activity, t *Tracer, st *couplingStats) map[string]float64 {
	var w, hdl, cycles, cells, procRuns, events, deltas, timePoints, netEvents, retrans float64
	var setups, walls []float64
	for _, r := range p.reps {
		w += float64(r.run)
		hdl += float64(r.hdlNs)
		cycles += float64(r.cycles)
		cells += float64(r.cells)
		procRuns += float64(r.procRuns)
		events += float64(r.events)
		deltas += float64(r.deltas)
		timePoints += float64(r.timePoints)
		netEvents += float64(r.netEvents)
		retrans += float64(r.retransmits)
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	coupling := float64(t.Total(spanCoupling))
	unitUs := make([]float64, len(st.unitNs))
	for i, ns := range st.unitNs {
		unitUs[i] = float64(ns) / 1e3
	}
	// The final drain window runs HDL outside the coupling wrapper; it
	// belongs to the HDL, not to the run's self time.
	hdlOutside := hdl - float64(st.hdlNs)
	units := float64(st.units)
	actCycles := float64(act.cycles)
	return map[string]float64{
		"hdl.busy_frac":                       hdl / w,
		"hdl.ns_per_cycle":                    hdl / cycles,
		"hdl.two_state_frac":                  ratio(float64(act.twoState), float64(act.events)),
		"hdl.process_runs_per_cycle":          procRuns / cycles,
		"hdl.signal_events_per_cycle":         events / cycles,
		"hdl.delta_cycles_per_cycle":          deltas / cycles,
		"hdl.time_points_per_cycle":           timePoints / cycles,
		"mapping.port_process_runs_per_cycle": ratio(float64(act.portRuns), actCycles),
		"dut.process_runs_per_cycle":          ratio(float64(act.runs-act.portRuns), actCycles),
		"cosim.coupling_busy_frac":            coupling / w,
		"cosim.transport_frac":                (coupling - float64(st.hdlNs)) / w,
		"cosim.unit_p50_us":                   median(unitUs),
		"cosim.unit_p90_us":                   percentile(unitUs, 0.9),
		"cosim.units_per_cell":                units / cells,
		"cosim.msgs_per_unit":                 ratio(float64(st.msgs), units),
		"ipc.retransmits_per_unit":            ratio(retrans, units),
		"mapping.encode_ns_per_cell":          float64(t.Total(spanEncode)) / cells,
		"mapping.decode_ns_per_cell":          float64(t.Total(spanDecode)) / cells,
		"netsim.self_frac":                    (float64(t.Self(spanRun)) - hdlOutside) / w,
		"netsim.events_per_cell":              netEvents / cells,
		"traffic.ns_per_cell":                 float64(t.Total(spanTraffic)) / cells,
		"refmodel.ns_per_cell":                float64(t.Total(spanRefForward)+t.Total(spanRefCompare)) / cells,
		"coverify.setup_ms":                   median(setups) * 1e3,
		"campaign.engine_frac":                1 - sum(walls)/p.wall.Seconds(),
		"campaign.shard_skew":                 1,
	}
}

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle value of xs, the mean of the two middle ones
// for an even count; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// campaignPass runs whole campaigns until the clock says stop.
type campaignPass struct {
	reps []campaignRep
	mem  [2]memPoint
}

func runCampaignPass(seed uint64, shards int, clock passClock, mode rigMode, t *Tracer) campaignPass {
	var p campaignPass
	p.mem[0] = readMem()
	for clock.more(len(p.reps)) {
		p.reps = append(p.reps, runCampaign(seed, campaignRuns, shards, mode, t))
	}
	p.mem[1] = readMem()
	return p
}

func (p *campaignPass) check(out *outcome, digests *digestSet, label string) {
	for i, r := range p.reps {
		out.attempted += campaignRuns
		out.failed += r.failed
		if r.err != nil {
			out.errs = append(out.errs, fmt.Errorf("%s campaign %d: %w", label, i, r.err))
			if r.failed == 0 {
				out.failed++
			}
			continue
		}
		if !digests.add(r.digest) {
			out.errs = append(out.errs, fmt.Errorf("%s campaign %d: digest differs:\n%s\nwant:\n%s",
				label, i, r.digest, digests.first))
			out.failed++
		}
	}
}

func (p *campaignPass) medianWall() float64 {
	ws := make([]float64, len(p.reps))
	for i, r := range p.reps {
		ws[i] = r.wall.Seconds()
	}
	return median(ws)
}

func campaignWorkload(seed uint64, seconds time.Duration, trace bool, spansPath string) outcome {
	out := outcome{info: map[string]any{}}
	shards := shardCount()
	out.info["load"] = map[string]any{"processes": 1, "gomaxprocs": runtime.GOMAXPROCS(0), "shards": shards, "pipes": 0}
	var digests digestSet
	limit := seconds
	if trace {
		limit = seconds / 2
	}

	start := time.Now()
	var setups []float64
	if !trace {
		setups = campaignSetups(seed, setupSamples)
	}
	base := runCampaignPass(seed, shards, passClock{start: start, limit: limit, min: minCampaignReps}, untraced, nil)
	base.check(&out, &digests, "untraced")
	out.info["digest_lines"] = strings.Count(digests.first, "\n")

	if !trace {
		var cps, lps, rps, walls []float64
		var cells uint64
		for _, r := range base.reps {
			cps = append(cps, float64(r.cycles)/r.wall.Seconds())
			lps = append(lps, float64(r.cells)/r.wall.Seconds())
			rps = append(rps, float64(r.runs)/r.wall.Seconds())
			walls = append(walls, r.runWalls...)
			cells += r.cells
		}
		// setup_s is a median here: the elaborations are timed back to back
		// at start-up, where GC cycles overlap more than a tenth of them.
		out.metrics = map[string]float64{
			"clk_cycles_per_sec":   median(cps),
			"cells_per_sec":        median(lps),
			"runs_per_sec":         median(rps),
			"run_wall_p90_s":       percentile(walls, 0.9),
			"setup_s":              median(setups),
			"alloc_bytes_per_cell": float64(base.mem[1].totalAlloc-base.mem[0].totalAlloc) / float64(cells),
			"peak_rss_mb":          peakRSSMB(),
		}
		out.info["samples"] = map[string]any{"campaigns": len(base.reps), "run_walls": len(walls),
			"setups": len(setups)}
		return out
	}

	t := newTracer()
	tr := runCampaignPass(seed, shards, passClock{start: time.Now(), limit: limit, min: minCampaignReps}, traced, t)
	tr.check(&out, &digests, "traced")
	cnt := runCampaignPass(seed, shards, passClock{min: 1}, counted, nil)
	cnt.check(&out, &digests, "counted")

	// Probe pass: every run of one campaign replayed on a rig the benchmark
	// holds, traced like the single-rig workloads, for the layers whose
	// handles the campaign's own rigs keep private.
	pt := newTracer()
	st := &couplingStats{}
	probes := runRigPass(func(i int) rigPlan { return campaignRunPlan(runSeed(seed, i)) },
		passClock{min: campaignRuns}, traced, pt, st)
	probes.check(&out, nil, "probe")
	var probeCycles uint64
	for _, r := range probes.reps {
		probeCycles += r.cycles
	}
	if c := cnt.reps[0]; probeCycles != c.cycles || probes.cells != c.cells {
		out.errs = append(out.errs, fmt.Errorf("probe runs do not reproduce the campaign: cycles %d vs %d, cells %d vs %d",
			probeCycles, c.cycles, probes.cells, c.cells))
	}

	m := rigLayers(probes, cnt.reps[0].act, pt, st)
	m["campaign.engine_frac"], m["campaign.shard_skew"] = campaignEngine(tr, shards)
	m["runtime.gc_cpu_frac"] = gcFrac(base.mem[0], base.mem[1])
	m["trace_overhead_frac"] = tr.medianWall()/base.medianWall() - 1
	out.metrics = m
	out.info["samples"] = map[string]any{"untraced_campaigns": len(base.reps), "traced_campaigns": len(tr.reps),
		"counted_campaigns": len(cnt.reps), "probe_runs": len(probes.reps), "coupling_units": st.units}
	out.info["spans"] = spansPath
	err := t.WriteTSV(spansPath)
	if err == nil {
		err = pt.WriteTSV(strings.TrimSuffix(spansPath, filepath.Ext(spansPath)) + "-probes" + filepath.Ext(spansPath))
	}
	if err != nil {
		out.errs = append(out.errs, fmt.Errorf("writing spans: %w", err))
	}
	return out
}

// campaignEngine returns the engine's share of the shards' capacity (one
// minus the time inside Cell.Run over shards × campaign wall) and the
// median shard skew (busiest shard's Cell.Run time over the mean).
func campaignEngine(p campaignPass, shards int) (engineFrac, skew float64) {
	var inRuns, capacity float64
	var skews []float64
	for _, r := range p.reps {
		var busiest, total float64
		for _, b := range r.shardBusy {
			total += float64(b)
			busiest = math.Max(busiest, float64(b))
		}
		inRuns += total
		capacity += float64(shards) * float64(r.wall)
		if total > 0 {
			skews = append(skews, busiest/(total/float64(len(r.shardBusy))))
		}
	}
	return 1 - inRuns/capacity, median(skews)
}
