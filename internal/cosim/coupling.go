package cosim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"castanet/internal/ipc"
)

// Coupling is the channel between the network-simulator side and the
// hardware side. Send pushes one time-stamped message and returns every
// response the hardware produced while processing it — the strict
// request/response alternation keeps both deployments (in-process and
// socket) deterministic.
//
// Error contract: on a non-nil error the returned slice is nil. Responses
// received before a mid-stream failure are discarded — a half-delivered
// batch is indistinguishable from a corrupted one, and callers must never
// fold it into the verification result.
type Coupling interface {
	Send(msg ipc.Message) ([]ipc.Message, error)
	Close() error
}

// BatchCoupling is a Coupling that can ship a whole δ-window of messages
// as one protocol unit: the conservative protocol has already proven
// every message in the window safe, so nothing is gained by paying a
// round trip per message. SendBatch delivers msgs in order, returns all
// responses the unit provoked, and follows the same error contract as
// Send — on error the slice is nil and any half-built response unit is
// discarded. The caller's slice is not retained.
type BatchCoupling interface {
	Coupling
	SendBatch(msgs []ipc.Message) ([]ipc.Message, error)
}

// Direct couples the interface process to an Entity by plain function
// calls — both engines in one OS process, the fastest deployment.
type Direct struct {
	Entity *Entity
}

// Send implements Coupling.
func (d *Direct) Send(msg ipc.Message) ([]ipc.Message, error) {
	if err := d.Entity.Deliver(msg); err != nil {
		return nil, &CouplingError{Class: ClassProtocol, Op: "entity", Err: err}
	}
	return d.Entity.TakeOutbox(), nil
}

// SendBatch implements BatchCoupling: the messages are delivered
// back-to-back and the entity's outbox — which coalesces emissions per
// delta-window — is taken once for the whole unit. A mid-unit failure
// discards the half-built outbox per the error contract.
func (d *Direct) SendBatch(msgs []ipc.Message) ([]ipc.Message, error) {
	for _, m := range msgs {
		if err := d.Entity.Deliver(m); err != nil {
			d.Entity.TakeOutbox()
			return nil, &CouplingError{Class: ClassProtocol, Op: "entity", Err: err}
		}
	}
	return d.Entity.TakeOutbox(), nil
}

// Close implements Coupling.
func (d *Direct) Close() error { return nil }

// Remote couples over an ipc.Transport (socket or pipe) to an
// EntityServer in another goroutine or process — the paper's UNIX-IPC
// deployment. The protocol is strictly alternating: one request, then
// responses terminated by a KindSync acknowledgement carrying the
// hardware's clock.
type Remote struct {
	Transport ipc.Transport
	// PeerTime is the hardware clock reported by the last acknowledgement.
	PeerTime int64
	// Deadline is the per-operation watchdog: a Send whose round trip
	// exceeds it tears the link down and reports a timeout-classed
	// CouplingError instead of hanging on a dead peer. Zero disables it.
	Deadline time.Duration

	timedOut atomic.Bool
}

// Send implements Coupling. Errors are typed (*CouplingError); the
// response slice is nil whenever the error is non-nil.
func (r *Remote) Send(msg ipc.Message) ([]ipc.Message, error) {
	if r.Deadline > 0 {
		wd := time.AfterFunc(r.Deadline, func() {
			// Closing the transport is the only way to unhook a blocked
			// Recv on an arbitrary Transport; the link is gone anyway.
			r.timedOut.Store(true)
			r.Transport.Close()
		})
		defer wd.Stop()
	}
	if err := r.Transport.Send(msg); err != nil {
		return nil, r.wrap("send", err)
	}
	var out []ipc.Message
	for {
		m, err := r.Transport.Recv()
		if err != nil {
			return nil, r.wrap("recv", err)
		}
		switch m.Kind {
		case ipc.KindSync:
			r.PeerTime = int64(m.Time)
			return out, nil
		case kindError:
			return nil, &CouplingError{
				Class: ClassProtocol,
				Op:    "entity",
				Err:   fmt.Errorf("remote entity: %s", m.Data),
			}
		}
		out = append(out, m)
	}
}

// SendBatch implements BatchCoupling. On a batch-capable transport the
// whole window crosses in one frame and the server answers with one
// response unit terminated by its KindSync acknowledgement; otherwise it
// degrades to the strict per-message alternation, which preserves
// semantics at the unbatched cost.
func (r *Remote) SendBatch(msgs []ipc.Message) ([]ipc.Message, error) {
	if len(msgs) == 1 {
		return r.Send(msgs[0])
	}
	bt, ok := r.Transport.(ipc.BatchTransport)
	if !ok {
		var out []ipc.Message
		for _, m := range msgs {
			resp, err := r.Send(m)
			if err != nil {
				return nil, err
			}
			out = append(out, resp...)
		}
		return out, nil
	}
	if r.Deadline > 0 {
		wd := time.AfterFunc(r.Deadline, func() {
			r.timedOut.Store(true)
			r.Transport.Close()
		})
		defer wd.Stop()
	}
	if err := bt.SendBatch(msgs); err != nil {
		return nil, r.wrap("send", err)
	}
	var out []ipc.Message
	for {
		unit, err := bt.RecvBatch()
		if err != nil {
			return nil, r.wrap("recv", err)
		}
		for _, m := range unit {
			switch m.Kind {
			case ipc.KindSync:
				r.PeerTime = int64(m.Time)
				return out, nil
			case kindError:
				return nil, &CouplingError{
					Class: ClassProtocol,
					Op:    "entity",
					Err:   fmt.Errorf("remote entity: %s", m.Data),
				}
			}
			out = append(out, m)
		}
	}
}

// wrap types a transport error; a failure caused by the deadline watchdog
// reports as timeout, not as the closed link the watchdog left behind.
func (r *Remote) wrap(op string, err error) error {
	if r.timedOut.Load() {
		return &CouplingError{
			Class: ClassTimeout,
			Op:    op,
			Err:   fmt.Errorf("%w: no response within %v", ipc.ErrTimeout, r.Deadline),
		}
	}
	return coupErr(op, err)
}

// Close implements Coupling.
func (r *Remote) Close() error { return r.Transport.Close() }

// kindError carries a remote-side failure description back to the client.
const kindError ipc.Kind = 2

// EntityServer drives an Entity from a transport: the far end of a Remote
// coupling. Serve processes requests until the transport closes.
type EntityServer struct {
	Entity    *Entity
	Transport ipc.Transport
	// Watchdog bounds the wall-clock silence between client requests: a
	// client that goes quiet longer than this is declared gone and Serve
	// returns a timeout-classed CouplingError instead of blocking
	// forever. Zero disables it.
	Watchdog time.Duration

	watchdogFired atomic.Bool
}

// recvUnit reads the client's next protocol unit: one message, or a
// whole δ-window batch when the transport carries batches.
func (s *EntityServer) recvUnit() ([]ipc.Message, error) {
	if bt, ok := s.Transport.(ipc.BatchTransport); ok {
		return bt.RecvBatch()
	}
	m, err := s.Transport.Recv()
	if err != nil {
		return nil, err
	}
	return []ipc.Message{m}, nil
}

// endErr maps the transport error that ended Serve to its result, the
// same on the receive and the send path: a watchdog expiry is a timeout,
// a client close is the clean end of co-simulation (nil), anything else
// is a coupling failure. The send path meets the client's close when the
// client hangs up while the last reply still awaits its acknowledgement.
func (s *EntityServer) endErr(op string, err error) error {
	if s.watchdogFired.Load() {
		return &CouplingError{
			Class: ClassTimeout,
			Op:    op,
			Err:   fmt.Errorf("%w: client silent beyond %v", ipc.ErrTimeout, s.Watchdog),
		}
	}
	if errors.Is(err, ipc.ErrClosed) || Classify(err) == ClassClosed {
		return nil
	}
	return coupErr(op, err)
}

// Serve runs the request loop. It returns nil when the client closes the
// connection cleanly, and a *CouplingError when the link dies any other
// way. The transport is closed on return, so a client blocked on a
// response learns of the server's death instead of waiting forever.
//
// A batched request is processed as one unit: every message is delivered
// in order, the entity's coalesced outbox plus the KindSync
// acknowledgement travel back as one batch, and a mid-unit Deliver
// failure discards the half-built outbox and answers kindError for the
// whole unit — mirroring the client-side error contract.
func (s *EntityServer) Serve() error {
	defer s.Transport.Close()
	var wd *time.Timer
	if s.Watchdog > 0 {
		wd = time.AfterFunc(s.Watchdog, func() {
			s.watchdogFired.Store(true)
			s.Transport.Close()
		})
		defer wd.Stop()
	}
	for {
		unit, err := s.recvUnit()
		if err != nil {
			return s.endErr("serve", err)
		}
		if wd != nil {
			wd.Reset(s.Watchdog)
		}
		var derr error
		for _, msg := range unit {
			if derr = s.Entity.Deliver(msg); derr != nil {
				break
			}
		}
		if derr != nil {
			s.Entity.TakeOutbox() // discard the half-built unit
			if serr := s.Transport.Send(ipc.Message{Kind: kindError, Time: s.Entity.HDL.Now(), Data: []byte(derr.Error())}); serr != nil {
				return s.endErr("send", serr)
			}
			continue
		}
		resps := s.Entity.TakeOutbox()
		sync := ipc.Message{Kind: ipc.KindSync, Time: s.Entity.HDL.Now()}
		if len(unit) > 1 {
			// A batched request earns a batched reply; the transport is
			// batch-capable or the unit could not have arrived whole.
			reply := append(resps, sync)
			if err := s.Transport.(ipc.BatchTransport).SendBatch(reply); err != nil {
				return s.endErr("send", err)
			}
			continue
		}
		for _, resp := range resps {
			if err := s.Transport.Send(resp); err != nil {
				return s.endErr("send", err)
			}
		}
		if err := s.Transport.Send(sync); err != nil {
			return s.endErr("send", err)
		}
	}
}
