package coverify

import (
	"fmt"
	"time"

	"castanet/internal/atm"
	"castanet/internal/cosim"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// harness is the one Fig.-1 test bench every network rig is built on:
// traffic sources feeding splitters, each splitter duplicating its cells
// to the rig's reference-model node and to the CASTANET interface
// process, and the comparison engine checking what comes back through
// the coupling. Only the device behind the coupling changes — an HDL
// model driven through cell ports, or a coupling the rig supplies (the
// test board).
//
// A rig supplies its DUT, its reference-model node, the port↔kind map
// (classify plus respBase), a cell maker per source and its comparator;
// the harness owns the rest: HDL and clock construction, the entity and
// its instrumentation, the cell-port writer/reader pairs, the codec
// registry, the interface process, coupling selection, the network and
// its fan-out, the end-of-run drain and the compile step. Rigs embed it,
// so Net, HDL, Entity, Iface, Cmp, Offered, FaultLink and RelClient are
// rig fields.
//
// Elaboration stays in the rig's hands step by step: HDL signals and
// processes and netsim nodes are created in the order the rig calls the
// harness, which keeps names, creation order and every pinned counter
// independent of how the bench is assembled.
type harness struct {
	Net    *netsim.Network
	HDL    *hdl.Simulator // nil behind a rig-supplied coupling
	Entity *cosim.Entity  // nil behind a rig-supplied coupling
	Iface  *cosim.InterfaceProcess
	// Cmp is the comparison engine (nil when the rig compares end-of-run
	// state instead of a response stream, as the accounting rig does).
	Cmp *refmodel.Comparator

	// FaultLink is the fault injector on the client side of a Remote
	// coupling (nil unless one was configured) — Partition/Heal/Stats
	// live here.
	FaultLink *ipc.FaultTransport
	// RelClient is the client-side reliability envelope of a Remote
	// coupling (nil unless one was configured); its Stats expose
	// retransmit counts.
	RelClient *ipc.ReliableTransport

	// Offered counts cells injected into the environment; the next
	// cell's sequence number is its current value.
	Offered uint64

	// Settings the rig copies in from its configuration.
	obs       obs.Run // metrics, trace, cells, cover and profile handles
	rec       *obs.Recorder
	seed      uint64
	period    sim.Duration // HDL byte clock
	delta     sim.Duration // δ_j of every cell input queue
	syncEvery sim.Duration
	batch     bool
	// settle is how long the network runs past the horizon before the
	// drain; drain is how far past that the final sync grants the device.
	settle, drain sim.Duration
	// drainLag keeps the drain's stamp-vs-clock lag in the entity's sync
	// statistics (the accounting rig's coverage is defined with it).
	drainLag bool
	// tamper mutates every response cell before comparison (see
	// SwitchRigConfig.TamperResponse).
	tamper func(c *atm.Cell)

	clk       *hdl.Signal
	registry  *mapping.Registry
	ifaceNode *netsim.Node
	// coupling is the coupling as built; Iface.Coupling may be wrapped
	// later (benchmark timers), the drain bypasses such wrappers.
	coupling cosim.Coupling
	respBase ipc.Kind // response kind of output port 0

	transport ipc.Transport
	srvDone   chan error
	closeErr  error
	runWall   time.Duration

	// Switch-rig latency probe: injection time per sequence number.
	injected map[uint32]sim.Time
	latency  *netsim.Probe

	// Cell-stream coverage handles (nil unless coverCells ran).
	hdr                       headerCover
	coverMatch, coverMismatch *obs.CoverHit
}

// headerCover bins stamped cell headers into the shared
// coverify.cell_header group, so every rig that stamps headers reports
// against one schema. The zero value (nil handles) bins nothing.
type headerCover struct {
	vpi, vci, pti *obs.CoverPoint
	clp0, clp1    *obs.CoverHit
}

// newHeaderCover defines the cell-header cover group on c (nil-safe).
func newHeaderCover(c *obs.CoverRegistry) headerCover {
	g := c.Group("coverify.cell_header")
	clp := g.Point("clp", "clp0", "clp1")
	return headerCover{
		vpi:  g.Range("vpi", 1, 2, 4, 8, 16),
		vci:  g.Range("vci", 63, 127, 255, 1023),
		pti:  g.Range("pti", 0, 3, 7),
		clp0: clp.Handle("clp0"),
		clp1: clp.Handle("clp1"),
	}
}

// hit bins one stamped header.
func (hc *headerCover) hit(h atm.Header) {
	hc.vpi.Observe(int64(h.VPI))
	hc.vci.Observe(int64(h.VCI))
	hc.pti.Observe(int64(h.PTI))
	if h.CLP != 0 {
		hc.clp1.Hit()
	} else {
		hc.clp0.Hit()
	}
}

// timingDefaults fills the timing defaults every rig shares: a 50 ns
// (20 MHz) byte clock, a δ window of deltaClocks clock periods (delta
// may be nil for rigs without a coupling window) and a 50 µs
// time-update period (sync may be nil likewise).
func timingDefaults(clock, delta, sync *sim.Duration, deltaClocks sim.Duration) {
	if *clock == 0 {
		*clock = 50 * sim.Nanosecond
	}
	if delta != nil && *delta == 0 {
		*delta = deltaClocks * *clock
	}
	if sync != nil && *sync == 0 {
		*sync = 50 * sim.Microsecond
	}
}

// newClockedHDL returns an HDL simulator with its byte clock "clk"
// running at period. The kernel counters go to reg and its activity
// profile to prof; both may be nil.
func newClockedHDL(period sim.Duration, reg *obs.Registry, prof *obs.RunProfile) (*hdl.Simulator, *hdl.Signal) {
	s := hdl.New()
	s.Instrument(reg, "hdl.sim")
	if prof != nil {
		prof.AttachActivitySource(s.EnableProfile().Snapshot)
	}
	clk := s.Bit("clk", hdl.U)
	s.Clock(clk, period)
	return s, clk
}

// compileUnless switches the elaborated design onto the compiled
// bit-parallel data plane unless the rig opted out (NoCompiled).
func compileUnless(s *hdl.Simulator, noCompiled bool) {
	if !noCompiled {
		s.MustCompile()
	}
}

// newHDL builds the rig's HDL simulator and clock.
func (h *harness) newHDL() {
	h.HDL, h.clk = newClockedHDL(h.period, h.obs.Registry, h.obs.Profile)
}

// newEntity wraps the HDL simulator in the co-simulation entity with
// every observability hook attached.
func (h *harness) newEntity() {
	e := cosim.NewEntity(h.HDL)
	e.Instrument(h.obs.Registry, h.obs.Tracer)
	e.InstrumentCover(h.obs.Cover)
	e.InstrumentProfile(h.obs.Profile.PhaseProf())
	e.Cells = h.obs.Cells
	e.Recorder = h.rec
	h.Entity = e
}

// codec registers the conversion function of message kind k.
func (h *harness) codec(k ipc.Kind, c mapping.Codec) {
	if h.registry == nil {
		h.registry = mapping.NewRegistry()
	}
	h.registry.Register(k, c)
}

// cellPort couples one device cell stream: messages of kind inKind are
// decoded and queued on a writer ("castanet_tx"+suffix) driving in; when
// out is non-nil a reader ("castanet_rx"+suffix) samples it and emits
// every cell as outKind.
func (h *harness) cellPort(suffix string, inKind, outKind ipc.Kind, in dut.CellPort, out *dut.CellPort) *mapping.CellPortWriter {
	w := mapping.NewCellPortWriter(h.HDL, "castanet_tx"+suffix, h.clk, in.Data, in.Sync)
	if cells := h.obs.Cells; cells.Enabled() {
		// The Seq stamp rides the first four payload octets of the
		// 53-octet image (Cell.StampSeq), so the hdl.commit hop can be
		// recovered from the raw bytes as they hit the wire.
		w.OnCellStart = func(img [atm.CellBytes]byte) {
			seq := uint32(img[atm.HeaderBytes])<<24 | uint32(img[atm.HeaderBytes+1])<<16 |
				uint32(img[atm.HeaderBytes+2])<<8 | uint32(img[atm.HeaderBytes+3])
			cells.Hop(uint64(seq)+1, obs.HopHDLCommit, int64(h.HDL.Now()))
		}
	}
	h.Entity.Input(inKind, h.delta, func(e *cosim.Entity, msg ipc.Message) error {
		v, err := (mapping.CellCodec{}).Decode(msg.Data)
		if err != nil {
			return err
		}
		w.Enqueue(v.(*atm.Cell))
		return nil
	})
	h.codec(inKind, mapping.CellCodec{})
	if out == nil {
		return w
	}
	rd := mapping.NewCellPortReader(h.HDL, "castanet_rx"+suffix, h.clk, out.Data, out.Sync)
	rd.SkipIdle = true
	rd.OnCell = func(c *atm.Cell) {
		data, err := (mapping.CellCodec{}).Encode(c)
		if err != nil {
			panic(err)
		}
		if id := uint64(c.Seq) + 1; h.obs.Cells.Sampled(id) {
			h.Entity.EmitTraced(outKind, data, id)
		} else {
			h.Entity.Emit(outKind, data)
		}
	}
	h.codec(outKind, mapping.CellCodec{})
	return w
}

// direct couples the interface process to the entity by function calls.
func (h *harness) direct() cosim.Coupling { return &cosim.Direct{Entity: h.Entity} }

// remote couples over an in-process pipe to an EntityServer goroutine.
// The client stack is Reliable(Fault(pipe)): faults are injected under
// the envelope, so the envelope must recover them. Close ends the server
// and reports its exit status.
func (h *harness) remote(fault *ipc.FaultConfig, reliable *ipc.ReliableConfig, deadline time.Duration) cosim.Coupling {
	a, b := ipc.Pipe(64)
	var ct, st ipc.Transport = a, b
	if fault != nil {
		h.FaultLink = ipc.NewFault(a, *fault)
		h.FaultLink.Instrument(h.obs.Registry, "ipc.fault")
		ct = h.FaultLink
	}
	if reliable != nil {
		h.RelClient = ipc.NewReliable(ct, *reliable)
		h.RelClient.Instrument(h.obs.Registry, "ipc.reliable")
		ct = h.RelClient
		st = ipc.NewReliable(b, *reliable)
	}
	h.transport = ct
	srv := &cosim.EntityServer{Entity: h.Entity, Transport: st, Watchdog: deadline}
	h.srvDone = make(chan error, 1)
	go func() { h.srvDone <- srv.Serve() }()
	return &cosim.Remote{Transport: ct, Deadline: deadline}
}

// network builds the network simulator and the interface process on
// coupling c. classify maps an input packet to its message kind (nil:
// cosim.KindData); response kind respBase+p is compared as output port
// p. The interface node itself is created by interfaceNode, so the rig
// keeps its node creation order.
func (h *harness) network(c cosim.Coupling, classify func(*netsim.Packet, int) ipc.Kind, respBase ipc.Kind) {
	h.coupling = c
	h.respBase = respBase
	h.Net = netsim.New(h.seed)
	h.Net.Sched.Instrument(h.obs.Registry, "net.sched")
	h.Iface = &cosim.InterfaceProcess{
		Coupling:  c,
		Registry:  h.registry,
		SyncEvery: h.syncEvery,
		Batch:     h.batch,
		Cells:     h.obs.Cells,
		Recorder:  h.rec,
		Classify:  classify,
		TraceOf: func(pkt *netsim.Packet, port int) uint64 {
			if c, ok := pkt.Data.(*atm.Cell); ok {
				return uint64(c.Seq) + 1
			}
			return 0
		},
		OnResponse: h.onResponse,
	}
	h.Iface.Instrument(h.obs.Registry, h.obs.Tracer)
	if _, ok := c.(cosim.BatchCoupling); ok {
		// Batch-size bins can only be hit by a coupling that carries
		// δ-window units.
		h.Iface.InstrumentCover(h.obs.Cover)
	}
	h.Iface.InstrumentProfile(h.obs.Profile.PhaseProf())
}

// interfaceNode creates the CASTANET interface node.
func (h *harness) interfaceNode() {
	h.ifaceNode = h.Net.Node("castanet", h.Iface)
}

// onResponse feeds one decoded hardware response into the comparator.
func (h *harness) onResponse(ctx *netsim.Ctx, resp cosim.Response) {
	cell, ok := resp.Value.(*atm.Cell)
	if !ok {
		panic(fmt.Sprintf("coverify: response kind %d carried %T", resp.Kind, resp.Value))
	}
	if t, known := h.injected[cell.Seq]; known {
		h.latency.Record(ctx.Now(), (resp.HWTime - t).Seconds())
	}
	h.compare(int(resp.Kind-h.respBase), cell, int64(ctx.Now()))
}

// coverCells defines the cell-stream cover groups: header bins stamped
// at the sources and verdict bins at the comparator.
func (h *harness) coverCells() {
	h.hdr = newHeaderCover(h.obs.Cover)
	verdict := h.obs.Cover.Group("coverify.cmp").Point("verdict", "match", "mismatch")
	h.coverMatch, h.coverMismatch = verdict.Handle("match"), verdict.Handle("mismatch")
}

// cellFiller is a rig's cell maker: it sets the header (and payload) of
// the k-th cell of a source, whose sequence number is already stamped.
type cellFiller interface {
	fill(ctx *netsim.Ctx, k uint64, c *atm.Cell)
}

// fillFunc adapts a function to cellFiller.
type fillFunc func(ctx *netsim.Ctx, k uint64, c *atm.Cell)

func (f fillFunc) fill(ctx *netsim.Ctx, k uint64, c *atm.Cell) { f(ctx, k, c) }

// source adds traffic source i ("src"+i) and its splitter ("split"+i).
// Every cell gets the run's next sequence number before the rig fills
// it, then is duplicated to refPort of ref and to ifacePort of the
// interface node.
func (h *harness) source(i int, gen traffic.Model, limit uint64, cells cellFiller, ref *netsim.Node, refPort, ifacePort int) {
	src := h.Net.Node(fmt.Sprintf("src%d", i), &netsim.Source{
		Gen:   gen,
		Limit: limit,
		Make: func(ctx *netsim.Ctx, k uint64) *netsim.Packet {
			c := &atm.Cell{Seq: uint32(h.Offered)}
			h.Offered++
			cells.fill(ctx, k, c)
			c.StampSeq()
			h.hdr.hit(c.Header)
			if h.injected != nil {
				h.injected[c.Seq] = ctx.Now()
			}
			h.obs.Cells.Hop(uint64(c.Seq)+1, obs.HopNetEnqueue, int64(ctx.Now()))
			return ctx.Net().NewPacket("cell", c, atm.CellBytes*8)
		},
	})
	split := h.Net.Node(fmt.Sprintf("split%d", i), &netsim.Func{
		OnArrival: func(ctx *netsim.Ctx, pkt *netsim.Packet, port int) {
			cell := pkt.Data.(*atm.Cell)
			ctx.Send(ctx.Net().NewPacket("cell", cell.Clone(), pkt.Size), 0)
			ctx.Send(ctx.Net().NewPacket("cell", cell.Clone(), pkt.Size), 1)
		},
	})
	h.Net.Connect(src, 0, split, 0, netsim.LinkParams{})
	h.Net.Connect(split, 0, ref, refPort, netsim.LinkParams{})
	h.Net.Connect(split, 1, h.ifaceNode, ifacePort, netsim.LinkParams{})
}

// run executes the network to the horizon, lets it settle, then drains
// the device: a final KindSync through the coupling grants the hardware
// its last window, and every response it returns is compared. Wall time
// feeds the profile's run total and the sim-rate gauges.
func (h *harness) run(until sim.Time) error {
	start := time.Now()
	defer func() {
		wall := time.Since(start)
		h.runWall += wall
		h.obs.Profile.PhaseProf().AddTotal(wall)
	}()
	tr := h.obs.Tracer
	h.rec.Note("rig", int64(h.Net.Sched.Now()), "run to horizon %v", until)
	tr.Begin(obs.TrackRig, "run", int64(h.Net.Sched.Now()))
	h.Net.Run(until)
	if err := h.Iface.Err(); err != nil {
		return err
	}
	tr.End(obs.TrackRig, "run", int64(h.Net.Sched.Now()))
	tr.Begin(obs.TrackRig, "drain", int64(h.Net.Sched.Now()))
	h.rec.Note("rig", int64(h.Net.Sched.Now()), "horizon reached, draining")
	if h.settle > 0 {
		// Responses produced inside late δ-windows (hardware stamps past
		// the horizon) are still delivered.
		h.Net.Sched.RunUntil(until + h.settle)
		if err := h.Iface.Err(); err != nil {
			return err
		}
	}
	err := h.drainDevice(until + h.settle + h.drain)
	tr.End(obs.TrackRig, "drain", int64(h.Net.Sched.Now()))
	return err
}

// drainDevice sends the final sync, stamped at, through the coupling as
// built and compares every response it returns.
func (h *harness) drainDevice(at sim.Time) error {
	if h.Entity != nil && !h.drainLag {
		// The artificial final fast-forward must not dominate the
		// steady-state lag figure.
		h.Entity.FreezeLagStats = true
	}
	resps, err := h.coupling.Send(ipc.Message{Kind: ipc.KindSync, Time: at})
	if err != nil {
		return err
	}
	for _, m := range resps {
		v, err := (mapping.CellCodec{}).Decode(m.Data)
		if err != nil {
			return err
		}
		h.compare(int(m.Kind-h.respBase), v.(*atm.Cell), int64(m.Time))
	}
	return nil
}

// compare feeds one DUT response cell into the comparison engine,
// closing the cell's causal waterfall at the compare hop and noting any
// fresh mismatch in the flight recorder. The tamper hook (test
// instrumentation) is applied first, so an induced fault takes the same
// triage path as a real one.
func (h *harness) compare(port int, c *atm.Cell, simPS int64) {
	if h.tamper != nil {
		h.tamper(c)
	}
	h.obs.Cells.Hop(uint64(c.Seq)+1, obs.HopCompare, simPS)
	before := len(h.Cmp.Mismatches())
	h.Cmp.Actual(port, c)
	if ms := h.Cmp.Mismatches(); len(ms) > before {
		m := ms[len(ms)-1]
		h.rec.NoteCell(uint64(m.Seq)+1, "cmp", simPS, "port %d: %s", port, m)
		h.coverMismatch.Hit()
	} else {
		h.coverMatch.Hit()
	}
}

// Close shuts down a remote coupling. It is idempotent: repeated calls
// return the server's first exit status instead of blocking on the
// already-drained completion channel. Rigs without one return nil.
func (h *harness) Close() error {
	if h.transport != nil {
		h.transport.Close()
		if h.srvDone != nil {
			h.closeErr = <-h.srvDone
			h.srvDone = nil
		}
	}
	return h.closeErr
}
