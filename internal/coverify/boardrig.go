package coverify

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/board"
	"castanet/internal/cyclesim"
	"castanet/internal/dut"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
)

// BoardRig is the hardware-in-the-simulation-loop environment (the right
// path of Fig. 1): the same network-level test bench drives the
// "fabricated" switch — a cycle-based device mounted on the test board —
// through the board coupling instead of the HDL simulator, and the same
// comparator checks the outputs against the reference model. Test benches
// are thereby reused unchanged from simulation to functional chip
// verification, the paper's central claim. Net, Iface, Cmp and Offered
// come from the shared test bench (see harness); HDL and Entity are nil.
type BoardRig struct {
	Cfg SwitchRigConfig
	harness

	Dev     *cyclesim.Switch
	Board   *board.Board
	Harness *board.StreamHarness
	Ref     *refmodel.SwitchRef
}

// NewBoardRig elaborates the hardware-in-the-loop environment. The board
// runs at the configured HDL clock rate (capped at the board's 20 MHz)
// with the given memory depth per test cycle.
func NewBoardRig(cfg SwitchRigConfig, memDepth int) (*BoardRig, error) {
	timingDefaults(&cfg.ClockPeriod, nil, &cfg.SyncEvery, 0)
	if cfg.Table == nil {
		cfg.Table = DefaultTable()
	}
	if cfg.Switch == (dut.SwitchConfig{}) {
		cfg.Switch = dut.DefaultSwitchConfig()
	}
	r := &BoardRig{Cfg: cfg}
	r.harness = harness{
		obs: obs.Run{Registry: cfg.Metrics, Tracer: cfg.Trace, Cells: cfg.Cells,
			Cover: cfg.Cover, Profile: cfg.Profile},
		rec: cfg.Recorder, seed: cfg.Seed, syncEvery: cfg.SyncEvery, batch: cfg.Batch,
		tamper: cfg.TamperResponse,
	}
	h := &r.harness
	h.coverCells()

	r.Dev = cyclesim.NewSwitch(cfg.Table, cfg.Switch.InFifoCells, cfg.Switch.OutFifoCells)
	clockHz := 1 / (sim.Duration(cfg.ClockPeriod)).Seconds()
	if clockHz > board.MaxClockHz {
		clockHz = board.MaxClockHz
	}
	r.Board = board.New(r.Dev, clockHz, memDepth)
	if err := r.Board.Configure(board.SwitchConfig()); err != nil {
		return nil, err
	}
	sh, err := board.NewStreamHarness(r.Board, board.SwitchStreams())
	if err != nil {
		return nil, err
	}
	r.Harness = sh
	coupling := &board.Coupling{
		Harness: sh,
		KindOf: func(k ipc.Kind) int {
			s := int(k - KindCellIn(0))
			if s < 0 || s >= dut.SwitchPorts {
				return -1
			}
			return s
		},
		RespKind: func(s int) ipc.Kind { return KindCellOut(s) },
		// Worst-case drain: a full output FIFO serializing at line rate
		// behind the last stimulus byte.
		DrainCycles: (cfg.Switch.OutFifoCells + 8) * 53,
	}
	for p := 0; p < dut.SwitchPorts; p++ {
		h.codec(KindCellIn(p), mapping.CellCodec{})
		h.codec(KindCellOut(p), mapping.CellCodec{})
	}

	// The board coupling is not batch-capable, so Batch is inert here.
	h.network(coupling, func(pkt *netsim.Packet, port int) ipc.Kind { return KindCellIn(port) }, kindCellOut)
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
	return r, nil
}

// Run executes the verification, then flushes remaining hardware output
// through one final sync-triggered test cycle batch.
func (r *BoardRig) Run(until sim.Time) error {
	if err := r.run(until); err != nil {
		return err
	}
	r.publishObs()
	return nil
}

// publishObs writes the end-of-run board figures into the registry: the
// test-cycle count and the split between hardware activity and SCSI
// software activity that govern the real-time fraction of §3.3.
func (r *BoardRig) publishObs() {
	reg := r.obs.Registry
	if reg == nil {
		return
	}
	reg.Gauge("coverify.offered").Set(float64(r.Offered))
	reg.Gauge("coverify.cmp.matched").Set(float64(r.Cmp.Matched))
	reg.Gauge("coverify.cmp.mismatches").Set(float64(len(r.Cmp.Mismatches())))
	reg.Gauge("board.test_cycles").Set(float64(r.Board.TestCycles))
	reg.Gauge("board.hw_time_ps").Set(float64(r.Board.HWTime))
	reg.Gauge("board.sw_time_ps").Set(float64(r.Board.SWTime))
	reg.Gauge("board.rt_fraction").Set(r.Board.RealTimeFraction())
}

// Report summarizes the hardware-in-the-loop run including board timing.
func (r *BoardRig) Report() string {
	return fmt.Sprintf("offered=%d %s drops=%d | %s", r.Offered, r.Cmp.Summary(), r.Dev.Drops(), r.Board)
}
