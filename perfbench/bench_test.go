package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/coverify"
	"castanet/internal/ipc"
	"castanet/internal/obs"
)

// Small plans keep the tests fast; the workload shapes are the real ones.
const (
	testE1Cells     = 200
	testRemoteCells = 100
)

// nonBatch is a Coupling without SendBatch.
type nonBatch struct{}

func (nonBatch) Send(ipc.Message) ([]ipc.Message, error) { return nil, nil }
func (nonBatch) Close() error                            { return nil }

func TestCouplingWrapperKeepsBatchCoupling(t *testing.T) {
	tr, st := newTracer(), &couplingStats{}
	for _, inner := range []cosim.Coupling{&cosim.Direct{}, &cosim.Remote{}} {
		if _, ok := wrapCoupling(inner, tr, nil, st).(cosim.BatchCoupling); !ok {
			t.Errorf("wrapped %T lost cosim.BatchCoupling: InterfaceProcess would fall back to per-message sends", inner)
		}
	}
	if _, ok := wrapCoupling(nonBatch{}, tr, nil, st).(cosim.BatchCoupling); ok {
		t.Error("wrapped per-message coupling claims cosim.BatchCoupling")
	}

	for name, plan := range map[string]rigPlan{"e1": e1Plan(1, testE1Cells), "remote": remotePlan(1, testRemoteCells)} {
		rig := coverify.NewSwitchRig(plan.build())
		instrumentRig(rig, tr, obs.NewPhaseProfile(), st)
		if _, ok := rig.Iface.Coupling.(cosim.BatchCoupling); !ok {
			t.Errorf("%s: instrumented rig's coupling is not a cosim.BatchCoupling", name)
		}
		if err := rig.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}

// tracedLayers runs reps traced repetitions of plan plus one counted one
// and returns the per-layer metrics.
func tracedLayers(t *testing.T, plan rigPlan, reps int, delay time.Duration) (map[string]float64, *couplingStats) {
	t.Helper()
	same := func(int) rigPlan { return plan }
	tr, st := newTracer(), &couplingStats{delay: delay}
	p := runRigPass(same, passClock{min: reps}, traced, tr, st)
	cnt := runRigPass(same, passClock{min: 1}, counted, nil, nil)
	for _, r := range append(p.reps, cnt.reps...) {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	return rigLayers(p, cnt.reps[0].act, tr, st), st
}

func TestMsgsPerUnit(t *testing.T) {
	e1, _ := tracedLayers(t, e1Plan(1, testE1Cells), 1, 0)
	if got := e1["cosim.msgs_per_unit"]; got < 3.5 || got > 4 {
		t.Errorf("e1_switch cosim.msgs_per_unit = %.3f, want about 4 (four aligned cells per δ-window unit)", got)
	}
	remote, _ := tracedLayers(t, remotePlan(1, testRemoteCells), 1, 0)
	if got := remote["cosim.msgs_per_unit"]; got < 1 || got > 1.1 {
		t.Errorf("remote_poisson cosim.msgs_per_unit = %.3f, want about 1 (one cell per network instant)", got)
	}
}

func TestRemoteRigClosedEveryRepetition(t *testing.T) {
	plan := remotePlan(2, testRemoteCells)
	before := runtime.NumGoroutine()
	tr, st := newTracer(), &couplingStats{}
	for _, mode := range []rigMode{untraced, traced, counted} {
		for i := 0; i < 3; i++ {
			if r := runRig(plan, mode, tr, st); r.err != nil {
				t.Fatal(r.err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive 9 remote repetitions (%d before):\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestDigestSameTracedOrNot(t *testing.T) {
	for name, plan := range map[string]rigPlan{"e1": e1Plan(3, testE1Cells), "remote": remotePlan(3, testRemoteCells)} {
		tr, st := newTracer(), &couplingStats{}
		var digests []string
		for _, mode := range []rigMode{untraced, traced, counted, untraced} {
			r := runRig(plan, mode, tr, st)
			if r.err != nil {
				t.Fatalf("%s: %v", name, r.err)
			}
			digests = append(digests, r.digest)
		}
		for i, d := range digests[1:] {
			if d != digests[0] {
				t.Errorf("%s: repetition %d digest\n  %s\ndiffers from\n  %s", name, i+1, d, digests[0])
			}
		}
	}
}

func TestCampaignProbesReproduceCampaign(t *testing.T) {
	const runs = 6
	c := runCampaign(5, runs, 2, counted, nil)
	if c.err != nil {
		t.Fatal(c.err)
	}
	var cycles, cells uint64
	for i := 0; i < runs; i++ {
		r := runRig(campaignRunPlan(runSeed(5, i)), untraced, nil, nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		cycles += r.cycles
		cells += r.cells
	}
	if cycles != c.cycles || cells != c.cells {
		t.Errorf("probe runs give %d cycles / %d cells, the campaign %d / %d", cycles, cells, c.cycles, c.cells)
	}
	if c.act.runs == 0 || c.act.portRuns == 0 {
		t.Errorf("counted campaign collected no activity: %+v", c.act)
	}
}

// TestAttributionSelfTest injects a fixed delay into every coupling unit
// and checks that it lands in the coupling's transport time, not in the
// HDL's. The delay is large against the HDL time, so host noise in the
// latter cannot mask a misattribution.
func TestAttributionSelfTest(t *testing.T) {
	const delay = time.Millisecond
	plan := e1Plan(1, testE1Cells)
	base, bst := tracedLayers(t, plan, 2, 0)
	slow, sst := tracedLayers(t, plan, 2, delay)
	injected := float64(sst.units) * float64(delay)

	transport := func(st *couplingStats) float64 {
		var ns float64
		for _, d := range st.unitNs {
			ns += float64(d)
		}
		return ns - float64(st.hdlNs)
	}
	if got := transport(sst) - transport(bst); got < 0.9*injected || got > 1.5*injected {
		t.Errorf("transport time grew by %.1f ms, want the injected %.1f ms", got/1e6, injected/1e6)
	}
	if got := math.Abs(float64(sst.hdlNs - bst.hdlNs)); got > 0.5*injected {
		t.Errorf("HDL time inside coupling units moved by %.1f ms for %.1f ms injected into the coupling", got/1e6, injected/1e6)
	}
	if slow["cosim.transport_frac"] <= 2*base["cosim.transport_frac"] {
		t.Errorf("cosim.transport_frac %.4f -> %.4f: injected delay not attributed to the coupling",
			base["cosim.transport_frac"], slow["cosim.transport_frac"])
	}
	if slow["hdl.busy_frac"] >= base["hdl.busy_frac"] {
		t.Errorf("hdl.busy_frac %.4f -> %.4f: rose although only the coupling slowed",
			base["hdl.busy_frac"], slow["hdl.busy_frac"])
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs the command with the flags every
// benchmark run passes and checks the last output line against
// BENCHMARK.json: exactly the end-to-end metrics untraced, exactly the
// per-layer metrics traced, each with its declared unit.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the e1_switch workload twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "e1_switch", "--seed", "1", "--seconds", "1", "--trace", trace,
			"--spans", t.TempDir() + "/spans.tsv"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Errorf("--trace %s: result keys %v, want exactly correct, attempted, failed, metrics", trace, keys(res))
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("--trace %s: metric %s missing", trace, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("--trace %s: metric %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("--trace %s: metric %s = %v", trace, m.Name, got.Value)
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "e1_switch", "--trace", "2"},
		{"--workload", "e1_switch", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}

// Only the server's reply being cut off by the client's close is the
// teardown race; every other Close error must still fail a repetition.
func TestTeardownRaceIsNarrow(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&cosim.CouplingError{Class: cosim.ClassClosed, Op: "send", Err: ipc.ErrClosed}, true},
		{&cosim.CouplingError{Class: cosim.ClassClosed, Op: "serve", Err: ipc.ErrClosed}, false},
		{&cosim.CouplingError{Class: cosim.ClassTimeout, Op: "send", Err: ipc.ErrTimeout}, false},
		{&cosim.CouplingError{Class: cosim.ClassProtocol, Op: "send", Err: ipc.ErrBadFrame}, false},
		{ipc.ErrClosed, false},
	}
	for _, c := range cases {
		if got := teardownRace(c.err); got != c.want {
			t.Errorf("teardownRace(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
