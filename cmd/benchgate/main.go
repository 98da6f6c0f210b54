// Command benchgate compares a freshly measured BENCH_coupling.json
// against the committed baseline and fails (exit 1) on a performance
// regression. It is the CI bench-gate job's comparator.
//
// Usage:
//
//	benchgate -baseline BENCH_coupling.json -current /tmp/bench/BENCH_coupling.json
//
// CI runners differ wildly in absolute speed, so the gate is built on
// dimensionless figures that survive a host change:
//
//   - speedup_* ratios (batched vs unbatched cells/sec on the same host,
//     same process) must not fall more than -tolerance (default 15%)
//     below the baseline ratio;
//   - allocs-per-op figures must not grow beyond the baseline by more
//     than the tolerance plus a ±0.5 rounding epsilon — allocation
//     counts are deterministic, so this catches a lost pooling path
//     exactly;
//   - enabled_overhead_frac figures (the observability layer's enabled
//     vs disabled hot-path cost, from BENCH_obs.json) must not drift
//     above the baseline by more than an absolute 0.05 — the baselines
//     sit near zero, so a relative bound would gate noise, not cost;
//   - clk_cycles_per_sec (the coupled workload's committed sim-rate, from
//     make bench-all) must not fall below the baseline by more than the
//     tolerance;
//   - hdl_cells_per_sec (the compiled HDL kernel's committed cell rate on
//     the E1 RTL bench) must not fall below the baseline by more than the
//     tolerance; its hdl_cells_per_sec_event companion is informational,
//     and their ratio is gated through speedup_compiled_e1;
//   - nil_*_ns_op figures (the disabled-instrumentation primitives) must
//     not exceed the baseline by more than an absolute 2 ns — each
//     measures a single pointer test, so a relative bound would gate
//     timer noise;
//
// A gated figure present in the baseline but absent from the current
// report counts as a regression; figures only the current report has are
// printed for context. Absolute ns/op and cells/sec figures are printed
// for context but never gated. Exit status: 0 clean, 1 regression, 2 usage/parse error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "BENCH_coupling.json", "committed baseline report")
		current   = fs.String("current", "", "freshly measured report to gate")
		tolerance = fs.Float64("tolerance", 0.15, "allowed relative regression on gated figures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *current == "" {
		fmt.Fprintln(stderr, "benchgate: -current is required")
		fs.Usage()
		return 2
	}
	base, err := loadFlat(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: baseline: %v\n", err)
		return 2
	}
	cur, err := loadFlat(*current)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: current: %v\n", err)
		return 2
	}
	regressions := compare(base, cur, *tolerance, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "\nbenchgate: FAIL — %d regression(s) beyond %.0f%% tolerance\n",
			regressions, *tolerance*100)
		return 1
	}
	fmt.Fprintf(stdout, "\nbenchgate: ok — no gated figure regressed beyond %.0f%% tolerance\n",
		*tolerance*100)
	return 0
}

// loadFlat parses a report file into dotted-key/value pairs, so the gate
// works on any nesting of the schema and tolerates added fields.
func loadFlat(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	flat := make(map[string]float64)
	flatten("", raw, flat)
	return flat, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch val := v.(type) {
	case map[string]any:
		for k, sub := range val {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, sub, out)
		}
	case float64:
		out[prefix] = val
	}
}

// allocEpsilon absorbs ±0.5 of rounding in integer allocs/op figures.
const allocEpsilon = 0.5

// fracEpsilon is the absolute drift allowed on enabled_overhead_frac
// figures: overhead fractions hover around zero (a few percent either
// way), so a relative tolerance is meaningless — 0.05 means "the enabled
// observability path may not get 5 points of the hot path more expensive
// than the committed baseline".
const fracEpsilon = 0.05

// nsEpsilon is the absolute drift allowed on nil_*_ns_op figures: the
// disabled-instrumentation primitives (one pointer test) measure 0–1 ns,
// where any relative bound is pure noise. 2 ns of headroom still catches a
// disabled path that grew real work.
const nsEpsilon = 2.0

// gate classifies a flattened key: "higher" figures (speedups and the
// committed clk_cycles_per_sec sim-rate) fail when they fall below the
// baseline, "lower" figures (allocation counts) fail when they rise above
// it, "absdrift" figures (overhead fractions) fail when they exceed the
// baseline by fracEpsilon, "absns" figures (nil-handle primitives) fail
// when they exceed the baseline by nsEpsilon, "info" figures are printed
// unjudged.
func gate(key string) string {
	switch {
	case strings.HasPrefix(key, "speedup_"):
		return "higher"
	case strings.Contains(key, "clk_cycles_per_sec"):
		return "higher"
	case key == "hdl_cells_per_sec" || strings.HasSuffix(key, ".hdl_cells_per_sec"):
		// The compiled kernel's committed cell rate. Exact-key match on
		// purpose: hdl_cells_per_sec_event (the plain-kernel leg of the
		// same run) is context for the speedup and must stay ungated.
		return "higher"
	case strings.Contains(key, "allocs_per"):
		return "lower"
	case strings.Contains(key, "enabled_overhead_frac"):
		return "absdrift"
	case strings.Contains(key, "nil_") && strings.HasSuffix(key, "_ns_op"):
		return "absns"
	default:
		return "info"
	}
}

// compare prints every figure present in either report and returns the
// number of gated regressions.
func compare(base, cur map[string]float64, tol float64, out io.Writer) int {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	regressions := 0
	fmt.Fprintf(out, "%-42s %14s %14s %9s  %s\n", "figure", "baseline", "current", "delta", "verdict")
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		if !inBase || !inCur {
			// A gated figure the baseline has and the current report
			// lacks fails: a gate that silently stops measuring is no
			// gate. Figures new in the current report are context.
			verdict := "missing (info)"
			if inBase && gate(k) != "info" {
				verdict = "MISSING (regression)"
				regressions++
			}
			fmt.Fprintf(out, "%-42s %14s %14s %9s  %s\n",
				k, fmtVal(b, inBase), fmtVal(c, inCur), "-", verdict)
			continue
		}
		delta := "-"
		if b != 0 {
			delta = fmt.Sprintf("%+.1f%%", (c/b-1)*100)
		}
		verdict := "info"
		switch gate(k) {
		case "higher":
			if c < b*(1-tol) {
				verdict = "REGRESSION"
				regressions++
			} else {
				verdict = "ok"
			}
		case "lower":
			if c > b*(1+tol)+allocEpsilon {
				verdict = "REGRESSION"
				regressions++
			} else {
				verdict = "ok"
			}
		case "absdrift":
			if c > b+fracEpsilon {
				verdict = "REGRESSION"
				regressions++
			} else {
				verdict = "ok"
			}
		case "absns":
			if c > b+nsEpsilon {
				verdict = "REGRESSION"
				regressions++
			} else {
				verdict = "ok"
			}
		}
		fmt.Fprintf(out, "%-42s %14s %14s %9s  %s\n", k, fmtVal(b, true), fmtVal(c, true), delta, verdict)
	}
	return regressions
}

func fmtVal(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	if v == float64(int64(v)) && v < 1e6 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
