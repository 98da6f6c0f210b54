package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// report builds a plausible BENCH_coupling.json with the given gated
// figures; the absolute rows scale off the speedups so the informational
// columns stay self-consistent.
func report(t *testing.T, dir, name string, speedupSmall, speedupLarge, encodeAllocs float64) string {
	t.Helper()
	unbatched := 30000.0
	doc := `{
  "unbatched_delta4": {"ns_per_cell": ` + f(unbatched) + `, "cells_per_sec": ` + f(1e9/unbatched) + `, "allocs_per_cell": 10},
  "batched_delta4": {"ns_per_cell": ` + f(unbatched/speedupSmall) + `, "cells_per_sec": ` + f(1e9/unbatched*speedupSmall) + `, "allocs_per_cell": 8},
  "unbatched_delta64": {"ns_per_cell": ` + f(unbatched) + `, "cells_per_sec": ` + f(1e9/unbatched) + `, "allocs_per_cell": 10},
  "batched_delta64": {"ns_per_cell": ` + f(unbatched/speedupLarge) + `, "cells_per_sec": ` + f(1e9/unbatched*speedupLarge) + `, "allocs_per_cell": 6},
  "batch_encode_64_allocs_per_op": ` + f(encodeAllocs) + `,
  "batch_encode_64_ns_per_op": 1700,
  "speedup_small_delta": ` + f(speedupSmall) + `,
  "speedup_large_delta": ` + f(speedupLarge) + `
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// gateRun executes the comparator and returns its exit status and output.
func gateRun(t *testing.T, baseline, current string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", baseline, "-current", current}, &out, &errb)
	t.Logf("exit=%d\n%s%s", code, out.String(), errb.String())
	return code, out.String()
}

// TestGatePassesIdentical pins the trivial fixed point: a report gated
// against itself is clean.
func TestGatePassesIdentical(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 0)
	if code, _ := gateRun(t, base, base); code != 0 {
		t.Fatalf("identical reports: exit %d, want 0", code)
	}
}

// TestGateFailsInjectedRegression is the acceptance check: a 20% drop in
// a gated speedup must fail the build, and the verdict line must name
// the regressed figure.
func TestGateFailsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 0)
	cur := report(t, dir, "cur.json", 2.8*0.80, 11.0, 0)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("20%% speedup regression: exit %d, want 1", code)
	}
	if !strings.Contains(out, "speedup_small_delta") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("output does not name the regressed figure:\n%s", out)
	}
}

// TestGateToleratesNoise proves the 15% tolerance absorbs ordinary
// run-to-run jitter: a 10% dip passes.
func TestGateToleratesNoise(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 0)
	cur := report(t, dir, "cur.json", 2.8*0.90, 11.0*0.92, 0)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("10%% dip within tolerance: exit %d, want 0", code)
	}
}

// TestGateFailsAllocGrowth pins the zero-alloc claim: the steady-state
// batch encoder growing from 0 to 1 alloc/op must fail even though the
// relative tolerance is meaningless at a zero baseline (the ±0.5
// epsilon, not the percentage, is the binding constraint).
func TestGateFailsAllocGrowth(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 0)
	cur := report(t, dir, "cur.json", 2.8, 11.0, 1)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("encode alloc growth 0 -> 1: exit %d, want 1", code)
	}
	if !strings.Contains(out, "batch_encode_64_allocs_per_op") {
		t.Fatalf("output does not name the alloc figure:\n%s", out)
	}
}

// TestGateFailsMissingGatedFigure: a gated figure the baseline has and
// the current report lacks is a regression, however the rest compares.
// An ungated figure going missing, and a figure only the current report
// has, stay informational.
func TestGateFailsMissingGatedFigure(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 0)
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cur := write("cur.json", `{"speedup_small_delta": 2.8, "batch_encode_64_allocs_per_op": 0, "batch_encode_64_ns_per_op": 1700}`)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("gated figure missing from the current report: exit %d, want 1", code)
	}
	if !strings.Contains(out, "speedup_large_delta") || !strings.Contains(out, "MISSING (regression)") {
		t.Fatalf("output does not name the missing figure:\n%s", out)
	}
	// Only ungated figures missing, plus one the baseline lacks: passes.
	small := write("small.json", `{"speedup_small_delta": 2.8, "speedup_large_delta": 11.0}`)
	extra := write("extra.json", `{"speedup_small_delta": 2.8, "speedup_large_delta": 11.0, "speedup_new": 1.0, "batch_encode_64_ns_per_op": 1}`)
	if code, _ := gateRun(t, small, extra); code != 0 {
		t.Fatalf("figure only in the current report: exit %d, want 0", code)
	}
	ungated := write("ungated.json", `{"speedup_small_delta": 2.8, "speedup_large_delta": 11.0, "batch_encode_64_ns_per_op": 1}`)
	if code, _ := gateRun(t, ungated, small); code != 0 {
		t.Fatalf("ungated figure missing: exit %d, want 0", code)
	}
}

// TestGateImprovementPasses confirms the gate is one-sided: faster
// speedups and fewer allocations never fail.
func TestGateImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	base := report(t, dir, "base.json", 2.8, 11.0, 1)
	cur := report(t, dir, "cur.json", 4.0, 15.0, 0)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("improvement: exit %d, want 0", code)
	}
}

// obsReport builds a BENCH_obs.json-shaped report with the given
// overhead fractions.
func obsReport(t *testing.T, dir, name string, hdlFrac, coverFrac float64) string {
	t.Helper()
	doc := `{
  "hdl_step": {"off_ns_op": 165, "on_ns_op": ` + f(165*(1+hdlFrac)) + `, "enabled_overhead_frac": ` + f(hdlFrac) + `},
  "cover_path": {"off_ns_op": 159, "on_ns_op": ` + f(159*(1+coverFrac)) + `, "enabled_overhead_frac": ` + f(coverFrac) + `},
  "nil_handle_ns_op": 0,
  "nil_cover_ns_op": 0
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsOverheadDrift pins the observability-overhead contract:
// enabled_overhead_frac figures gate on absolute drift (baseline + 0.05),
// because the baselines hover near zero and a relative tolerance would be
// meaningless there.
func TestGateFailsOverheadDrift(t *testing.T) {
	dir := t.TempDir()
	base := obsReport(t, dir, "base.json", 0.01, 0.14)
	cur := obsReport(t, dir, "cur.json", 0.01, 0.22)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("overhead drift 0.14 -> 0.22: exit %d, want 1", code)
	}
	if !strings.Contains(out, "cover_path.enabled_overhead_frac") {
		t.Fatalf("output does not name the drifted figure:\n%s", out)
	}
}

// TestGateToleratesOverheadJitter proves the absolute epsilon absorbs
// measurement noise on near-zero fractions — a swing that would be a
// huge relative change but a small absolute one passes.
func TestGateToleratesOverheadJitter(t *testing.T) {
	dir := t.TempDir()
	base := obsReport(t, dir, "base.json", 0.01, 0.14)
	cur := obsReport(t, dir, "cur.json", 0.04, 0.17)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("overhead jitter within epsilon: exit %d, want 0", code)
	}
}

// rateReport builds a report carrying the committed sim-rate and a
// disabled-profiler primitive, the two figures the profiler PR put under
// the gate.
func rateReport(t *testing.T, dir, name string, cyclesPerSec, nilProfileNs float64) string {
	t.Helper()
	doc := `{
  "clk_cycles_per_sec": ` + f(cyclesPerSec) + `,
  "nil_profile_ns_op": ` + f(nilProfileNs) + `
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsSimRateDrop pins the sim-rate contract: clk_cycles_per_sec
// gates like a speedup — a 20% drop fails, a 10% dip passes.
func TestGateFailsSimRateDrop(t *testing.T) {
	dir := t.TempDir()
	base := rateReport(t, dir, "base.json", 120000, 0)
	cur := rateReport(t, dir, "cur.json", 120000*0.80, 0)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("20%% sim-rate drop: exit %d, want 1", code)
	}
	if !strings.Contains(out, "clk_cycles_per_sec") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("output does not name the regressed figure:\n%s", out)
	}
	cur = rateReport(t, dir, "cur2.json", 120000*0.90, 0)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("10%% sim-rate dip within tolerance: exit %d, want 0", code)
	}
}

// TestGateFailsNilProfileGrowth pins the ~0 ns disabled-profiler claim:
// nil_*_ns_op figures gate on absolute nanoseconds (baseline + 2 ns), so
// the disabled path growing real work (say 0 -> 5 ns) fails while timer
// jitter around zero passes.
func TestGateFailsNilProfileGrowth(t *testing.T) {
	dir := t.TempDir()
	base := rateReport(t, dir, "base.json", 120000, 0)
	cur := rateReport(t, dir, "cur.json", 120000, 5)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("nil-profile growth 0 -> 5 ns: exit %d, want 1", code)
	}
	if !strings.Contains(out, "nil_profile_ns_op") {
		t.Fatalf("output does not name the grown figure:\n%s", out)
	}
	cur = rateReport(t, dir, "cur2.json", 120000, 1)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("1 ns jitter within epsilon: exit %d, want 0", code)
	}
}

// TestGateUsageErrors pins the exit-2 contract for missing inputs.
func TestGateUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("missing -current: exit %d, want 2", code)
	}
	if code := run([]string{"-current", "/nonexistent.json"}, &out, &errb); code != 2 {
		t.Fatalf("unreadable baseline: exit %d, want 2", code)
	}
}

// kernelReport builds a report carrying the compiled-kernel figures: the
// gated compiled cell rate, its informational event-kernel companion, and
// their speedup ratio.
func kernelReport(t *testing.T, dir, name string, compiled, event float64) string {
	t.Helper()
	doc := `{
  "hdl_cells_per_sec": ` + f(compiled) + `,
  "hdl_cells_per_sec_event": ` + f(event) + `,
  "speedup_compiled_e1": ` + f(compiled/event) + `
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsCompiledRateRegression is the fast-path acceptance check:
// a 20% drop in the compiled kernel's committed cell rate must fail the
// build and name the figure.
func TestGateFailsCompiledRateRegression(t *testing.T) {
	dir := t.TempDir()
	base := kernelReport(t, dir, "base.json", 40000, 7500)
	cur := kernelReport(t, dir, "cur.json", 40000*0.80, 7500*0.80)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("20%% compiled-rate regression: exit %d, want 1", code)
	}
	if !strings.Contains(out, "hdl_cells_per_sec") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("output does not name the regressed figure:\n%s", out)
	}
}

// TestGateToleratesCompiledRateNoise proves a 10% dip stays inside the
// 15% tolerance.
func TestGateToleratesCompiledRateNoise(t *testing.T) {
	dir := t.TempDir()
	base := kernelReport(t, dir, "base.json", 40000, 7500)
	cur := kernelReport(t, dir, "cur.json", 40000*0.90, 7500*0.90)
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("10%% dip within tolerance: exit %d, want 0", code)
	}
}

// TestGateCompiledSpeedupRegression pins the dimensionless claim: the
// compiled-vs-event ratio collapsing (compiled falls, event holds) fails
// through the speedup_ rule even on a host where absolute rates moved.
func TestGateCompiledSpeedupRegression(t *testing.T) {
	dir := t.TempDir()
	base := kernelReport(t, dir, "base.json", 40000, 7500)
	cur := kernelReport(t, dir, "cur.json", 40000*0.84, 7500)
	code, out := gateRun(t, base, cur)
	if code != 1 {
		t.Fatalf("speedup collapse: exit %d, want 1", code)
	}
	if !strings.Contains(out, "speedup_compiled_e1") {
		t.Fatalf("output does not name speedup_compiled_e1:\n%s", out)
	}
}

// TestGateIgnoresEventRateDrop proves the companion event-kernel figure
// is informational: it may fall arbitrarily without failing the gate, as
// long as the gated compiled figures hold.
func TestGateIgnoresEventRateDrop(t *testing.T) {
	dir := t.TempDir()
	base := kernelReport(t, dir, "base.json", 40000, 7500)
	cur := report2(t, dir, "cur.json", 40000, 7500*0.5, 40000/(7500*0.5))
	if code, _ := gateRun(t, base, cur); code != 0 {
		t.Fatalf("event-rate drop (info figure): exit %d, want 0", code)
	}
}

// report2 is kernelReport with an explicit speedup, for rows where the
// ratio moves independently.
func report2(t *testing.T, dir, name string, compiled, event, speedup float64) string {
	t.Helper()
	doc := `{
  "hdl_cells_per_sec": ` + f(compiled) + `,
  "hdl_cells_per_sec_event": ` + f(event) + `,
  "speedup_compiled_e1": ` + f(speedup) + `
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
