package coverify

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/cosim"
	"castanet/internal/dut"
	"castanet/internal/ipc"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// kindPolicedOut labels cells the UPC hardware let through.
const kindPolicedOut = ipc.KindUser + 48

// SlotAligned wraps a traffic model so every inter-arrival interval is a
// whole number of hardware clock cycles — the physical reality of a
// slotted ATM line, and the condition under which the network-level GCRA
// reference and the cycle-counting UPC hardware make identical
// conformance decisions.
type SlotAligned struct {
	Model  traffic.Model
	Period sim.Duration
}

// Next implements traffic.Model.
func (s SlotAligned) Next(rng *sim.RNG) sim.Duration {
	d := s.Model.Next(rng)
	q := (d + s.Period/2) / s.Period * s.Period
	if q < s.Period {
		q = s.Period
	}
	return q
}

// PolicerContract is one UPC contract of the rig.
type PolicerContract struct {
	VC           atm.VC
	PeakInterval sim.Duration // contracted minimum cell spacing
	Tau          sim.Duration // cell delay variation tolerance
}

// PolicerRigConfig parameterizes the UPC co-verification.
type PolicerRigConfig struct {
	Seed        uint64
	ClockPeriod sim.Duration
	Delta       sim.Duration
	Tag         bool // tag instead of discard
	Contracts   []PolicerContract
	Sources     []PolicerSource
	SyncEvery   sim.Duration
	// Batch coalesces per-instant coupling messages into δ-window units
	// (see SwitchRigConfig.Batch).
	Batch bool
	// NoCompiled opts out of the compiled bit-parallel data plane (see
	// SwitchRigConfig.NoCompiled).
	NoCompiled bool
	// Obs, when non-nil, receives the run's metrics, trace events, cell
	// journeys, profile and functional coverage (the UPC action bins under
	// "coverify.policer", folded once from the DUT's end-of-run counters,
	// plus the shared cosim groups).
	Obs *obs.Run
}

// PolicerSource is one offered stream.
type PolicerSource struct {
	Model traffic.Model
	VC    atm.VC
	Cells uint64
}

// fill makes every cell of the stream a cell of its connection.
func (s *PolicerSource) fill(_ *netsim.Ctx, _ uint64, c *atm.Cell) { c.VPI, c.VCI = s.VC.VPI, s.VC.VCI }

// PolicerRig verifies the UPC hardware against the GCRA reference: both
// see the same slot-aligned cell stream; the comparator checks that
// exactly the same cells emerge on the one output port, with identical
// CLP tagging and payloads. Net, HDL, Entity, Iface, Cmp and Offered
// come from the shared test bench (see harness).
type PolicerRig struct {
	Cfg PolicerRigConfig
	harness

	DUT *dut.Policer
	Ref *refmodel.PolicerRef

	coverAction *obs.CoverPoint
}

// NewPolicerRig elaborates the UPC co-verification environment.
func NewPolicerRig(cfg PolicerRigConfig) *PolicerRig {
	// UPC hardware is timing-sensitive: its conformance decisions depend
	// on exact cell spacing. A large processing window δ would let the
	// hardware clock overrun later cells' time stamps, delaying their
	// physical transmission and perturbing the very inter-arrival gaps
	// under test. One clock of lookahead keeps the coupling cycle-faithful
	// (arrivals are at least one slot apart).
	timingDefaults(&cfg.ClockPeriod, &cfg.Delta, &cfg.SyncEvery, 1)
	r := &PolicerRig{Cfg: cfg}
	r.harness = harness{seed: cfg.Seed, period: cfg.ClockPeriod, delta: cfg.Delta,
		syncEvery: cfg.SyncEvery, batch: cfg.Batch, drain: 100 * 53 * cfg.ClockPeriod}
	h := &r.harness
	if cfg.Obs != nil {
		h.obs = *cfg.Obs
	}
	r.coverAction = h.obs.Cover.Group("coverify.policer").Point("action",
		"conforming", "nonconforming", "tagged", "discarded")

	h.newHDL()
	r.DUT = dut.NewPolicer(h.HDL, h.clk, 64)
	if cfg.Tag {
		r.DUT.Action = dut.PolicerTag
	}
	h.Cmp = refmodel.NewComparator()
	r.Ref = refmodel.NewPolicerRef(cfg.Tag)
	r.Ref.OnForward = func(ctx *netsim.Ctx, c *atm.Cell) { h.Cmp.Expect(0, c) }
	for _, ct := range cfg.Contracts {
		if err := r.DUT.ContractFor(ct.VC, ct.PeakInterval, ct.Tau, cfg.ClockPeriod); err != nil {
			panic(err)
		}
		r.Ref.Contract(ct.VC, ct.PeakInterval, ct.Tau)
	}
	h.newEntity()
	h.cellPort("", cosim.KindData, kindPolicedOut, r.DUT.In, &r.DUT.Out)

	h.network(h.direct(), nil, kindPolicedOut)
	h.interfaceNode()
	refNode := h.Net.Node("refupc", r.Ref)
	// The reference policer must observe the cell stream at the same
	// reference point as the hardware: after the physical line has
	// serialized it (one cell per 53 byte clocks). Without this line
	// model, conformance decisions near the GCRA boundary would differ
	// between the instantaneous network view and the bit-level view —
	// not a hardware bug, a mis-placed observation point.
	lineNode := h.Net.Node("line", &netsim.Queue{ServiceTime: 53 * cfg.ClockPeriod})
	h.Net.Connect(lineNode, 0, refNode, 0, netsim.LinkParams{})
	for i := range cfg.Sources {
		s := &cfg.Sources[i]
		h.source(i, SlotAligned{Model: s.Model, Period: cfg.ClockPeriod}, s.Cells, s, lineNode, i, 0)
	}
	compileUnless(h.HDL, cfg.NoCompiled)
	return r
}

// Run executes the verification and drains the pipeline.
func (r *PolicerRig) Run(until sim.Time) error {
	if err := r.run(until); err != nil {
		return err
	}
	// UPC decisions accumulate in the DUT's diagnostic registers during
	// the run; fold them into the action bins once, after the drain.
	r.coverAction.Add("conforming", r.DUT.Conforming)
	r.coverAction.Add("nonconforming", r.DUT.NonConforming)
	r.coverAction.Add("tagged", r.DUT.Tagged)
	r.coverAction.Add("discarded", r.DUT.Discarded)
	return nil
}

// Report summarizes the UPC comparison.
func (r *PolicerRig) Report() string {
	return fmt.Sprintf("offered=%d ref[conf=%d viol=%d] dut[conf=%d viol=%d tag=%d drop=%d] %s",
		r.Offered, r.Ref.Conforming, r.Ref.NonConforming,
		r.DUT.Conforming, r.DUT.NonConforming, r.DUT.Tagged, r.DUT.Discarded, r.Cmp.Summary())
}
