// Package coverify assembles the complete Fig.-1 co-verification
// environments: traffic sources in the network simulator feeding both the
// algorithmic reference model and — through the CASTANET coupling — the
// register-transfer-level device under test, with the comparison engine
// checking every hardware response against the reference. It is the
// top-level API the examples, the command-line tool and the benchmark
// harnesses build on.
package coverify

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Message kind layout of the switch coupling: one input queue per switch
// input port, one response kind per output port.
const (
	kindCellIn  = ipc.KindUser      // +port, 4 input queues
	kindCellOut = ipc.KindUser + 16 // +port, 4 response kinds
)

// KindCellIn returns the message kind of input port p.
func KindCellIn(p int) ipc.Kind { return kindCellIn + ipc.Kind(p) }

// KindCellOut returns the response kind of output port p.
func KindCellOut(p int) ipc.Kind { return kindCellOut + ipc.Kind(p) }

// PortTraffic configures the workload offered to one switch input port.
type PortTraffic struct {
	Model traffic.Model // inter-arrival process; nil = silent port
	VCs   []atm.VC      // connections cycled round-robin
	CLP1  float64       // fraction of cells sent with CLP=1
	Cells uint64        // number of cells to emit
}

// SwitchRigConfig parameterizes a switch co-verification run.
type SwitchRigConfig struct {
	Seed        uint64
	ClockPeriod sim.Duration // HDL byte clock; default 50ns (20 MHz)
	Delta       sim.Duration // δ_j processing window; default 64 clocks
	Switch      dut.SwitchConfig
	Table       *atm.Translator
	Traffic     [dut.SwitchPorts]PortTraffic
	// Remote couples over an in-process socket pair with an EntityServer
	// goroutine instead of direct calls.
	Remote bool
	// Fault, when non-nil, injects deterministic link faults on the client
	// side of a Remote coupling (drops, duplication, corruption,
	// partitions). Requires Remote.
	Fault *ipc.FaultConfig
	// Reliable, when non-nil, layers the reliability envelope over both
	// ends of a Remote coupling so injected faults are recovered
	// transparently. Requires Remote.
	Reliable *ipc.ReliableConfig
	// Deadline arms the coupling watchdogs: the client Remote tears the
	// link down when one request/response round trip exceeds it, and the
	// EntityServer declares the client gone after the same silence. Zero
	// disables both.
	Deadline time.Duration
	// SyncEvery overrides the periodic time-update interval.
	SyncEvery sim.Duration
	// Batch coalesces all coupling messages of one network instant into a
	// single δ-window unit (one wire frame, one acknowledgement) — see
	// cosim.InterfaceProcess.Batch. Event orderings are unchanged; only
	// the per-message round trips are amortized.
	Batch bool
	// NoCompiled keeps the HDL simulator on the plain nine-value event
	// kernel instead of the compiled bit-parallel data plane (hdl.Compile,
	// DESIGN.md §18). Observables are byte-identical either way — the flag
	// exists for differential testing and as the -no-compiled opt-out.
	NoCompiled bool
	// Waveforms, when non-nil, receives a VCD dump of the DUT's external
	// ports — the HDL-side waveform debugging window of Fig. 2.
	Waveforms io.Writer
	// Metrics, when non-nil, receives the run's counters and gauges: the
	// network scheduler, HDL kernel, co-simulation entity/interface,
	// transport envelopes and the comparison engine all register under it
	// (naming scheme in DESIGN.md §10).
	Metrics *obs.Registry
	// Cover, when non-nil, receives the run's functional coverage: cell
	// header bins (VPI/VCI/PTI/CLP), comparison verdicts, DUT queue-depth
	// bands and drop causes, and the coupling's sync-window extremes
	// (DESIGN.md §15). Every handle is nil-safe, so the rig instruments
	// unconditionally at ~0 ns when coverage is off.
	Cover *obs.CoverRegistry
	// Profile, when non-nil, receives the run's simulation profile: the
	// HDL kernel's deterministic activity attribution (per-signal events,
	// two-state purity, per-process runs and delta churn) is attached as a
	// live source, and the co-simulation entity and interface attribute
	// their wall-clock phase times (HDL execution, encode/decode,
	// transport) into its phase profile. Nil-safe like every obs handle.
	Profile *obs.RunProfile
	// Trace, when non-nil, records run-scoped events (δ-windows, coupling
	// messages, rig phases) for Chrome trace-event export.
	Trace *obs.Tracer
	// Cells, when non-nil, records the causal per-hop journey of sampled
	// cells (trace ID = cell Seq + 1) from traffic-source enqueue to the
	// comparison engine; waterfalls surface in FailureDigest and as
	// Chrome-trace flow arrows.
	Cells *obs.CellTracker
	// Recorder, when non-nil, keeps the rig's flight-recorder ring:
	// coupling failures, protocol anomalies and comparison mismatches are
	// noted as they happen and dumped by FailureDigest.
	Recorder *obs.Recorder
	// TamperResponse, when non-nil, mutates every DUT response cell before
	// comparison — a verify-the-verifier hook that induces deterministic
	// mismatches so digests, waterfalls and recorder dumps can be exercised
	// end to end.
	TamperResponse func(c *atm.Cell)
}

// DefaultTable returns a full-mesh connection table: each input port p
// owns VCs {VPI:p+1, VCI:100+q} routed to output q with translated
// headers.
func DefaultTable() *atm.Translator {
	tb := atm.NewTranslator()
	for p := 0; p < dut.SwitchPorts; p++ {
		for q := 0; q < dut.SwitchPorts; q++ {
			in := atm.VC{VPI: byte(p + 1), VCI: uint16(100 + q)}
			out := atm.VC{VPI: byte(0x10 + p), VCI: uint16(0x200 + 16*p + q)}
			tb.Add(in, atm.Route{Port: q, Out: out})
		}
	}
	return tb
}

// PortVCs returns input port p's connections in the DefaultTable layout.
func PortVCs(p int) []atm.VC {
	vcs := make([]atm.VC, dut.SwitchPorts)
	for q := 0; q < dut.SwitchPorts; q++ {
		vcs[q] = atm.VC{VPI: byte(p + 1), VCI: uint16(100 + q)}
	}
	return vcs
}

// SwitchRig is an elaborated switch co-verification environment. Net,
// HDL, Entity, Iface, Cmp, Offered, FaultLink, RelClient and Close come
// from the shared test bench (see harness).
type SwitchRig struct {
	Cfg SwitchRigConfig
	harness

	DUT *dut.Switch
	Ref *refmodel.SwitchRef

	// Probes collects run statistics: "hw.latency" is the per-cell
	// traversal time through the hardware (network injection to hardware
	// response, seconds) — the network simulator's analysis capabilities
	// applied to the hardware's behaviour.
	Probes *netsim.ProbeSet

	vcd *hdl.VCD
}

// NewSwitchRig elaborates the complete environment.
func NewSwitchRig(cfg SwitchRigConfig) *SwitchRig {
	timingDefaults(&cfg.ClockPeriod, &cfg.Delta, &cfg.SyncEvery, 64)
	if cfg.Table == nil {
		cfg.Table = DefaultTable()
	}
	if cfg.Switch == (dut.SwitchConfig{}) {
		cfg.Switch = dut.DefaultSwitchConfig()
	}
	r := &SwitchRig{Cfg: cfg}
	margin := r.drainMargin()
	r.harness = harness{
		obs: obs.Run{Registry: cfg.Metrics, Tracer: cfg.Trace, Cells: cfg.Cells,
			Cover: cfg.Cover, Profile: cfg.Profile},
		rec: cfg.Recorder, seed: cfg.Seed, period: cfg.ClockPeriod, delta: cfg.Delta,
		syncEvery: cfg.SyncEvery, batch: cfg.Batch, settle: margin, drain: margin,
		tamper: cfg.TamperResponse, injected: make(map[uint32]sim.Time),
	}
	h := &r.harness
	h.coverCells()

	// Hardware side: switch DUT plus the co-simulation entity.
	h.newHDL()
	r.DUT = dut.NewSwitch(h.HDL, h.clk, cfg.Table, cfg.Switch)
	r.DUT.InstrumentCover(cfg.Cover)
	h.newEntity()
	for p := 0; p < dut.SwitchPorts; p++ {
		h.cellPort(strconv.Itoa(p), KindCellIn(p), KindCellOut(p), r.DUT.In[p], &r.DUT.Out[p])
	}

	if cfg.Waveforms != nil {
		watch := []*hdl.Signal{h.clk}
		for p := 0; p < dut.SwitchPorts; p++ {
			watch = append(watch, r.DUT.In[p].Data, r.DUT.In[p].Sync,
				r.DUT.Out[p].Data, r.DUT.Out[p].Sync)
		}
		r.vcd = hdl.NewVCD(cfg.Waveforms, h.HDL, watch...)
	}

	coupling := h.direct()
	if cfg.Remote {
		coupling = h.remote(cfg.Fault, cfg.Reliable, cfg.Deadline)
	}

	// Network side.
	h.network(coupling, func(pkt *netsim.Packet, port int) ipc.Kind { return KindCellIn(port) }, kindCellOut)
	r.Probes = netsim.NewProbeSet()
	h.latency = r.Probes.Get("hw.latency")
	h.Cmp = refmodel.NewComparator()
	r.Ref = &refmodel.SwitchRef{Table: cfg.Table, OnForward: func(ctx *netsim.Ctx, outPort int, c *atm.Cell) {
		h.Cmp.Expect(outPort, c)
	}}
	refNode := h.Net.Node("refswitch", r.Ref)
	h.interfaceNode()
	for p := 0; p < dut.SwitchPorts; p++ {
		if tr := &r.Cfg.Traffic[p]; tr.Model != nil && tr.Cells != 0 {
			h.source(p, tr.Model, tr.Cells, tr, refNode, p, p)
		}
	}
	compileUnless(h.HDL, cfg.NoCompiled)
	return r
}

// fill makes cell c the i-th of the port's stream: its connections in
// round robin, CLP=1 with probability CLP1, and a recognizable payload
// beyond the seq stamp.
func (tr *PortTraffic) fill(ctx *netsim.Ctx, i uint64, c *atm.Cell) {
	vc := tr.VCs[int(i)%len(tr.VCs)]
	c.VPI, c.VCI = vc.VPI, vc.VCI
	if tr.CLP1 > 0 && ctx.RNG().Bool(tr.CLP1) {
		c.CLP = 1
	}
	for b := 4; b < len(c.Payload); b++ {
		c.Payload[b] = byte(uint32(b) * (c.Seq + 1))
	}
}

// Run executes the co-verification for the given horizon, lets the
// network simulation continue through a drain margin so that responses
// produced inside late δ-windows (whose hardware stamps may exceed the
// horizon) are still delivered, then flushes the hardware pipeline.
func (r *SwitchRig) Run(until sim.Time) error {
	err := r.run(until)
	if err == nil && r.vcd != nil {
		err = r.vcd.Close()
	}
	r.publishObs()
	r.publishRates()
	return err
}

// publishObs writes the end-of-run verification figures into the registry:
// how many cells the environment offered, what the comparison engine saw,
// and the final protocol lag bound.
func (r *SwitchRig) publishObs() {
	reg := r.Cfg.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("coverify.offered").Set(float64(r.Offered))
	reg.Gauge("coverify.cmp.matched").Set(float64(r.Cmp.Matched))
	reg.Gauge("coverify.cmp.mismatches").Set(float64(len(r.Cmp.Mismatches())))
	reg.Gauge("coverify.dut_delivered").Set(float64(r.DUTDelivered()))
	reg.Gauge("coverify.clock_cycles").Set(float64(r.ClockCycles()))
	reg.Gauge("cosim.entity.max_lag_ps").Set(float64(r.Entity.MaxLag))
}

// publishRates writes the sim-rate gauges: simulated work per wall-clock
// second, the co-simulation speed figures an operator watches on /profile.
// The ".rate." name segment is the convention the telemetry server extracts.
func (r *SwitchRig) publishRates() {
	reg := r.Cfg.Metrics
	if reg == nil {
		return
	}
	w := r.runWall.Seconds()
	if w <= 0 {
		return
	}
	reg.Gauge("coverify.rate.cells_per_sec").Set(float64(r.DUTDelivered()) / w)
	reg.Gauge("coverify.rate.signal_events_per_sec").Set(float64(r.HDL.Events()) / w)
	reg.Gauge("coverify.rate.clk_cycles_per_sec").Set(float64(r.ClockCycles()) / w)
}

// drainMargin is a generous bound on how long in-flight cells can linger:
// every FIFO in the switch emptied at line rate, several times over.
func (r *SwitchRig) drainMargin() sim.Duration {
	return sim.Duration(4*(r.Cfg.Switch.InFifoCells+r.Cfg.Switch.OutFifoCells+8)) *
		53 * r.Cfg.ClockPeriod
}

// FailureDigest renders the rig's triage bundle after a failed or
// unclean run: the first comparison mismatch with its cell's trace ID and
// per-hop waterfall, followed by the flight-recorder dump. Everything in
// it derives from simulated time and seed-determined state, so a replay
// of the same run produces the same digest. Returns "" when there is
// nothing to report.
func (r *SwitchRig) FailureDigest() string {
	var b strings.Builder
	if ms := r.Cmp.Mismatches(); len(ms) > 0 {
		m := ms[0]
		id := uint64(m.Seq) + 1
		fmt.Fprintf(&b, "first mismatch: %s (trace=0x%x)\n", m, id)
		if tr, ok := r.Cfg.Cells.Trace(id); ok {
			b.WriteString(obs.WaterfallText(tr))
		} else if r.Cfg.Cells.Enabled() {
			fmt.Fprintf(&b, "cell trace 0x%x not sampled (tracing every %d cells)\n",
				id, r.Cfg.Cells.Every())
		}
	}
	b.WriteString(r.Cfg.Recorder.Dump())
	return b.String()
}

// DUTDelivered returns the number of cells that emerged from the DUT.
func (r *SwitchRig) DUTDelivered() uint64 {
	return r.Cmp.Matched + uint64(len(r.Cmp.Mismatches()))
}

// ClockCycles returns how many HDL byte-clock cycles were simulated.
func (r *SwitchRig) ClockCycles() uint64 {
	return uint64(r.HDL.Now() / r.Cfg.ClockPeriod)
}

// Report summarizes the run for harness output.
func (r *SwitchRig) Report() string {
	return fmt.Sprintf("offered=%d refFwd=%d dut=%d drops=%d unknown=%d | %s | hdlEvents=%d netEvents=%d cycles=%d",
		r.Offered, r.refForwardTotal(), r.DUTDelivered(), r.DUT.Drops(), r.DUT.UnknownVC,
		r.Cmp.Summary(), r.HDL.Events(), r.Net.Sched.Executed(), r.ClockCycles())
}

func (r *SwitchRig) refForwardTotal() uint64 {
	var t uint64
	for _, f := range r.Ref.Forwarded {
		t += f
	}
	return t
}
