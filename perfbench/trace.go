package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"castanet/internal/atm"
	"castanet/internal/cosim"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Span names. The benchmark records spans only at the boundaries of calls
// it makes into each layer's public surface; nothing inside the program is
// instrumented for it.
const (
	spanRun        = iota // one repetition (or one campaign run)
	spanSetup             // traffic construction + coverify.NewSwitchRig
	spanCoupling          // one coupling unit: Send or SendBatch
	spanTraffic           // one traffic.Model.Next
	spanRefForward        // refmodel.SwitchRef.OnForward (comparator Expect)
	spanRefCompare        // InterfaceProcess.OnResponse (latency probe + Actual)
	spanEncode            // mapping codec Encode on the network side
	spanDecode            // mapping codec Decode on the network side
	numSpans
)

var spanNames = [numSpans]string{
	"run", "coverify.setup", "coupling.unit", "traffic.next",
	"refmodel.forward", "refmodel.compare", "mapping.encode", "mapping.decode",
}

// maxKeptSpans bounds the spans kept for the end-of-run dump (24 B each);
// the per-name aggregates count every span regardless.
const maxKeptSpans = 1 << 18

type span struct {
	name      uint8
	run       uint32
	parent    int32 // index into kept spans, -1 for a root or an unkept parent
	start     int64 // ns since the tracer's epoch
	dur, self int64
}

type openSpan struct {
	name  uint8
	kept  int32
	start time.Time
	child int64 // ns covered by finished child spans
}

// Tracer records nested spans on one goroutine. A layer's self time is its
// span time minus the time its child spans cover. Campaign runs execute on
// several shards at once and are recorded through recordRoot instead.
type Tracer struct {
	epoch time.Time
	run   uint32
	stack []openSpan

	mu      sync.Mutex // guards spans and the aggregates for recordRoot
	spans   []span
	dropped uint64
	total   [numSpans]int64
	self    [numSpans]int64
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]span, 0, 1<<12)}
}

// Begin opens a span of the given name under the innermost open span.
func (t *Tracer) Begin(name int) {
	kept := int32(-1)
	t.mu.Lock()
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = int32(len(t.spans))
		t.spans = append(t.spans, span{name: uint8(name), run: t.run, parent: parent})
	}
	t.mu.Unlock()
	t.stack = append(t.stack, openSpan{name: uint8(name), kept: kept, start: time.Now()})
}

// End closes the innermost open span and returns its duration.
func (t *Tracer) End() time.Duration {
	end := time.Now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := int64(end.Sub(o.start))
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	t.mu.Lock()
	t.add(o.name, d, d-o.child)
	if o.kept >= 0 {
		s := &t.spans[o.kept]
		s.start, s.dur, s.self = int64(o.start.Sub(t.epoch)), d, d-o.child
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return time.Duration(d)
}

// recordRoot records a finished childless root span; safe from any
// goroutine.
func (t *Tracer) recordRoot(name int, run uint32, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.add(uint8(name), int64(d), int64(d))
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{name: uint8(name), run: run, parent: -1,
			start: int64(start.Sub(t.epoch)), dur: int64(d), self: int64(d)})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *Tracer) add(name uint8, d, self int64) {
	t.total[name] += d
	t.self[name] += self
}

// Total returns the summed duration of every span of the name, in ns.
func (t *Tracer) Total(name int) int64 { return t.total[name] }

// Self returns the summed self time of every span of the name, in ns.
func (t *Tracer) Self(name int) int64 { return t.self[name] }

// WriteTSV writes the kept spans, one per line: run id, name, parent line
// (0-based, -1 for none), start ns, duration ns, self ns.
func (t *Tracer) WriteTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# run\tname\tparent\tstart_ns\tdur_ns\tself_ns\t(dropped=%d)\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.run, spanNames[s.name], s.parent, s.start, s.dur, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// couplingStats counts what crossed the coupling wrapper.
type couplingStats struct {
	units, msgs uint64
	unitNs      []int64
	hdlNs       int64 // HDL phase time executed inside coupling units
	// delay is spun inside every unit span before the inner call; only the
	// attribution self-test sets it, to inject a known transport cost.
	delay time.Duration
}

// timedCoupling wraps the interface process's coupling. Each Send or
// SendBatch is one unit span; the HDL phase time the unit executed (a
// Direct coupling runs the HDL inside the call, a Remote one waits for the
// server to run it) is read from the rig's phase profile around the call.
type timedCoupling struct {
	inner  cosim.Coupling
	t      *Tracer
	phases *obs.PhaseProfile
	st     *couplingStats
}

func (c *timedCoupling) unit(n int, call func() ([]ipc.Message, error)) ([]ipc.Message, error) {
	c.t.Begin(spanCoupling)
	h0 := c.phases.Ns(obs.PhaseHDL)
	if c.st.delay > 0 {
		for start := time.Now(); time.Since(start) < c.st.delay; {
		}
	}
	resps, err := call()
	d := c.t.End()
	c.st.hdlNs += c.phases.Ns(obs.PhaseHDL) - h0
	c.st.units++
	c.st.msgs += uint64(n)
	c.st.unitNs = append(c.st.unitNs, int64(d))
	return resps, err
}

// Send implements cosim.Coupling.
func (c *timedCoupling) Send(m ipc.Message) ([]ipc.Message, error) {
	return c.unit(1, func() ([]ipc.Message, error) { return c.inner.Send(m) })
}

// Close implements cosim.Coupling.
func (c *timedCoupling) Close() error { return c.inner.Close() }

// timedBatchCoupling keeps cosim.BatchCoupling visible through the
// wrapper: without it InterfaceProcess falls back to one round trip per
// message and the traced pass would time a path production never runs.
type timedBatchCoupling struct {
	*timedCoupling
	batch cosim.BatchCoupling
}

// SendBatch implements cosim.BatchCoupling.
func (c *timedBatchCoupling) SendBatch(msgs []ipc.Message) ([]ipc.Message, error) {
	return c.unit(len(msgs), func() ([]ipc.Message, error) { return c.batch.SendBatch(msgs) })
}

// wrapCoupling returns a timed coupling with the same capabilities as inner.
func wrapCoupling(inner cosim.Coupling, t *Tracer, phases *obs.PhaseProfile, st *couplingStats) cosim.Coupling {
	tc := &timedCoupling{inner: inner, t: t, phases: phases, st: st}
	if b, ok := inner.(cosim.BatchCoupling); ok {
		return &timedBatchCoupling{timedCoupling: tc, batch: b}
	}
	return tc
}

// timedCodec wraps one registered codec.
type timedCodec struct {
	inner mapping.Codec
	t     *Tracer
}

func (c timedCodec) Encode(v interface{}) ([]byte, error) {
	c.t.Begin(spanEncode)
	b, err := c.inner.Encode(v)
	c.t.End()
	return b, err
}

func (c timedCodec) Decode(data []byte) (interface{}, error) {
	c.t.Begin(spanDecode)
	v, err := c.inner.Decode(data)
	c.t.End()
	return v, err
}

// timedRegistry builds a fresh registry holding timed wrappers of the
// switch rig's codecs (Register panics on a second registration, so the
// rig's own registry is left untouched).
func timedRegistry(old *mapping.Registry, t *Tracer) *mapping.Registry {
	reg := mapping.NewRegistry()
	for p := 0; p < dut.SwitchPorts; p++ {
		for _, k := range []ipc.Kind{coverify.KindCellIn(p), coverify.KindCellOut(p)} {
			if c, ok := old.Lookup(k); ok {
				reg.Register(k, timedCodec{inner: c, t: t})
			}
		}
	}
	return reg
}

// timedModel wraps one port's inter-arrival process.
type timedModel struct {
	inner traffic.Model
	t     *Tracer
}

func (m *timedModel) Next(rng *sim.RNG) sim.Duration {
	m.t.Begin(spanTraffic)
	d := m.inner.Next(rng)
	m.t.End()
	return d
}

// instrumentRig installs the timed wrappers on an elaborated rig: coupling,
// codec registry, reference-model forward hook and response hook. The
// traffic models are wrapped in the configuration before elaboration.
func instrumentRig(rig *coverify.SwitchRig, t *Tracer, phases *obs.PhaseProfile, st *couplingStats) {
	w := wrapCoupling(rig.Iface.Coupling, t, phases, st)
	rig.Iface.Coupling = w
	rig.Iface.Registry = timedRegistry(rig.Iface.Registry, t)
	fwd := rig.Ref.OnForward
	rig.Ref.OnForward = func(ctx *netsim.Ctx, port int, c *atm.Cell) {
		t.Begin(spanRefForward)
		fwd(ctx, port, c)
		t.End()
	}
	resp := rig.Iface.OnResponse
	rig.Iface.OnResponse = func(ctx *netsim.Ctx, r cosim.Response) {
		t.Begin(spanRefCompare)
		resp(ctx, r)
		t.End()
	}
}
