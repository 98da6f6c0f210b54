package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"castanet/internal/obs"
)

// ErrCheckpoint classifies checkpoint-file problems: corruption, version
// or fingerprint mismatch. The CLI maps it to usage-and-exit-2 territory —
// the operator pointed a campaign at the wrong (or a damaged) file.
var ErrCheckpoint = errors.New("campaign: bad checkpoint")

// Checkpoint file layout (all integers big-endian):
//
//	offset 0   magic  "CKPT"
//	offset 4   u16    version (3)
//	offset 6   u32    CRC-32 (IEEE) of the payload
//	offset 10  u32    payload length
//	offset 14  payload
//
// Payload v3 (strings are u32 length + bytes; f64 is IEEE-754 bits).
// v2 added a coverage block after each stats block — to the shard
// snapshot and to every held entry; v3 adds an activity block (the
// simulation profile) after each coverage block. Older files are rejected
// by version, not silently misread:
//
//	u64 spec fingerprint          u64 seed
//	u64 runs                      u32 shards (effective)
//	u32 matrix length             u8  board present
//	shards × shard snapshot:
//	  u64 done (watermark)        u64 completed
//	  u64 failTotal               u64 quarantined
//	  u64 retried                 u64 gaveUp
//	  u32 nstats × {str name, u64 count, f64 sum, f64 min, f64 max}
//	  u32 ngroups × {str group, u32 npoints ×
//	    {str point, u32 nbins × {str bin, u64 hits}}}
//	  u32 nsignals × {str name, u64 width, u64 events, u64 twoState}
//	  u32 nprocs   × {str name, u64 runs, u64 deltaRuns}
//	  u32 nfail  × {u64 index, u64 seed, str cell, str label, str detail}
//	  u32 nheld  × {u64 index, u8 hasFail, [fail as above],
//	    u32 nstats × {...}, u32 ngroups × {...},
//	    u32 nsignals × {...}, u32 nprocs × {...}}
//	board (when present): u32 ncells ×
//	  {u64 decided, u64 consec, u64 chainFirst, u8 quarantined,
//	   u64 e, u64 firstFail,
//	   u32 npending × {u64 ord, u64 index, u8 failed, u8 gaveUp}}
const (
	ckptMagic   = "CKPT"
	ckptVersion = 3
)

// ckFailure is one persisted digest entry. The label is materialized at
// save time (Failure.Label() of a live error) so a restored digest renders
// byte-identically without resurrecting the error value.
type ckFailure struct {
	index, seed         uint64
	cell, label, detail string
}

// ckHeld is one persisted held entry: a committed run whose stats and
// digest retention await their final quarantine classification. Cell and
// ordinal re-derive from the index.
type ckHeld struct {
	index    uint64
	fail     *ckFailure
	stats    []Stat
	cover    []obs.CoverGroupSnap
	activity obs.ActivitySnap
}

// ckShard is one shard's persisted snapshot.
type ckShard struct {
	done, completed, failTotal   int
	quarantined, retried, gaveUp int
	stats                        []Stat
	cover                        []obs.CoverGroupSnap
	activity                     obs.ActivitySnap
	failures                     []ckFailure
	held                         []ckHeld
}

// ckPending mirrors pendingOutcome with its ordinal key.
type ckPending struct {
	ord, index     uint64
	failed, gaveUp bool
}

// ckCell mirrors cellBoard.
type ckCell struct {
	decided, chainFirst, e, firstFail uint64
	consec                            int
	quarantined                       bool
	pending                           []ckPending
}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	fingerprint uint64
	seed        uint64
	runs        int
	shards      int
	matrixLen   int
	snaps       []ckShard
	board       []ckCell
	hasBoard    bool
}

// specFingerprint hashes everything the resumed campaign must agree on:
// identity, seed, run count, effective shard count (per-shard float sums
// only merge deterministically at a fixed shard count), digest bound,
// supervision policy, the coverage and profile flags (a resume must
// collect each exactly as the checkpointed campaign did, or the merged
// sections would be partial), and the matrix cell names in order.
func specFingerprint(s *Spec, shards int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ckpt-v3|%s|%d|%d|%d|%d|%v|%d|%v|%v|%d|cov=%v|prof=%v|",
		s.Name, s.Seed, s.Runs, shards, s.digestMax(),
		s.Policy.RunTimeout, s.Policy.Retries,
		s.Policy.retryBase(), s.Policy.retryCap(), s.Policy.QuarantineAfter,
		s.Coverage, s.Profile)
	for _, c := range s.Matrix {
		fmt.Fprintf(h, "%s|", c.Name())
	}
	return h.Sum64()
}

// ckEnc appends the payload fields.
type ckEnc struct{ b []byte }

func (e *ckEnc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *ckEnc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *ckEnc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *ckEnc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *ckEnc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *ckEnc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *ckEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *ckEnc) stats(ss []Stat) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s.Name)
		e.u64(s.Count)
		e.f64(s.Sum)
		e.f64(s.Min)
		e.f64(s.Max)
	}
}

func (e *ckEnc) cover(gs []obs.CoverGroupSnap) {
	e.u32(uint32(len(gs)))
	for _, g := range gs {
		e.str(g.Name)
		e.u32(uint32(len(g.Points)))
		for _, p := range g.Points {
			e.str(p.Name)
			e.u32(uint32(len(p.Bins)))
			for _, b := range p.Bins {
				e.str(b.Label)
				e.u64(b.Hits)
			}
		}
	}
}

func (e *ckEnc) activity(a obs.ActivitySnap) {
	e.u32(uint32(len(a.Signals)))
	for _, s := range a.Signals {
		e.str(s.Name)
		e.u64(uint64(s.Width))
		e.u64(s.Events)
		e.u64(s.TwoState)
	}
	e.u32(uint32(len(a.Processes)))
	for _, p := range a.Processes {
		e.str(p.Name)
		e.u64(p.Runs)
		e.u64(p.DeltaRuns)
	}
}

func (e *ckEnc) failure(f ckFailure) {
	e.u64(f.index)
	e.u64(f.seed)
	e.str(f.cell)
	e.str(f.label)
	e.str(f.detail)
}

// ckDec consumes the payload with a sticky error; every read is bounds-
// checked so a truncated payload degrades to ErrCheckpoint, never a panic.
type ckDec struct {
	b   []byte
	off int
	err error
}

func (d *ckDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload at offset %d", ErrCheckpoint, d.off)
	}
}

func (d *ckDec) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *ckDec) u8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (d *ckDec) u32() uint32 {
	if s := d.take(4); s != nil {
		return binary.BigEndian.Uint32(s)
	}
	return 0
}

func (d *ckDec) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.BigEndian.Uint64(s)
	}
	return 0
}

func (d *ckDec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *ckDec) boolean() bool { return d.u8() != 0 }
func (d *ckDec) str() string   { return string(d.take(int(d.u32()))) }
func (d *ckDec) count() int    { return int(d.u32()) }
func (d *ckDec) stats() []Stat {
	n := d.count()
	if d.err != nil {
		return nil
	}
	out := make([]Stat, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, Stat{Name: d.str(), Count: d.u64(),
			Sum: d.f64(), Min: d.f64(), Max: d.f64()})
	}
	return out
}

func (d *ckDec) cover() []obs.CoverGroupSnap {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]obs.CoverGroupSnap, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		g := obs.CoverGroupSnap{Name: d.str()}
		np := d.count()
		for j := 0; j < np && d.err == nil; j++ {
			p := obs.CoverPointSnap{Name: d.str()}
			nb := d.count()
			for k := 0; k < nb && d.err == nil; k++ {
				p.Bins = append(p.Bins, obs.CoverBin{Label: d.str(), Hits: d.u64()})
			}
			g.Points = append(g.Points, p)
		}
		out = append(out, g)
	}
	return out
}

func (d *ckDec) activity() obs.ActivitySnap {
	var a obs.ActivitySnap
	ns := d.count()
	for i := 0; i < ns && d.err == nil; i++ {
		a.Signals = append(a.Signals, obs.SignalActivity{
			Name: d.str(), Width: int(d.u64()), Events: d.u64(), TwoState: d.u64()})
	}
	np := d.count()
	for i := 0; i < np && d.err == nil; i++ {
		a.Processes = append(a.Processes, obs.ProcessActivity{
			Name: d.str(), Runs: d.u64(), DeltaRuns: d.u64()})
	}
	if d.err != nil {
		return obs.ActivitySnap{}
	}
	return a
}

func (d *ckDec) failure() ckFailure {
	return ckFailure{index: d.u64(), seed: d.u64(),
		cell: d.str(), label: d.str(), detail: d.str()}
}

func encodeCheckpoint(ck *checkpointState) []byte {
	var e ckEnc
	e.u64(ck.fingerprint)
	e.u64(ck.seed)
	e.u64(uint64(ck.runs))
	e.u32(uint32(ck.shards))
	e.u32(uint32(ck.matrixLen))
	e.boolean(ck.hasBoard)
	for _, s := range ck.snaps {
		e.u64(uint64(s.done))
		e.u64(uint64(s.completed))
		e.u64(uint64(s.failTotal))
		e.u64(uint64(s.quarantined))
		e.u64(uint64(s.retried))
		e.u64(uint64(s.gaveUp))
		e.stats(s.stats)
		e.cover(s.cover)
		e.activity(s.activity)
		e.u32(uint32(len(s.failures)))
		for _, f := range s.failures {
			e.failure(f)
		}
		e.u32(uint32(len(s.held)))
		for _, h := range s.held {
			e.u64(h.index)
			e.boolean(h.fail != nil)
			if h.fail != nil {
				e.failure(*h.fail)
			}
			e.stats(h.stats)
			e.cover(h.cover)
			e.activity(h.activity)
		}
	}
	if ck.hasBoard {
		e.u32(uint32(len(ck.board)))
		for _, c := range ck.board {
			e.u64(c.decided)
			e.u64(uint64(c.consec))
			e.u64(c.chainFirst)
			e.boolean(c.quarantined)
			e.u64(c.e)
			e.u64(c.firstFail)
			e.u32(uint32(len(c.pending)))
			for _, p := range c.pending {
				e.u64(p.ord)
				e.u64(p.index)
				e.boolean(p.failed)
				e.boolean(p.gaveUp)
			}
		}
	}
	return e.b
}

func decodeCheckpoint(payload []byte) (*checkpointState, error) {
	d := &ckDec{b: payload}
	ck := &checkpointState{
		fingerprint: d.u64(),
		seed:        d.u64(),
		runs:        int(d.u64()),
		shards:      int(d.u32()),
		matrixLen:   int(d.u32()),
		hasBoard:    d.boolean(),
	}
	if d.err != nil {
		return nil, d.err
	}
	if ck.shards < 1 || ck.runs < 1 {
		return nil, fmt.Errorf("%w: nonsensical shape shards=%d runs=%d", ErrCheckpoint, ck.shards, ck.runs)
	}
	for s := 0; s < ck.shards && d.err == nil; s++ {
		snap := ckShard{
			done:        int(d.u64()),
			completed:   int(d.u64()),
			failTotal:   int(d.u64()),
			quarantined: int(d.u64()),
			retried:     int(d.u64()),
			gaveUp:      int(d.u64()),
			stats:       d.stats(),
		}
		snap.cover = d.cover()
		snap.activity = d.activity()
		nfail := d.count()
		for i := 0; i < nfail && d.err == nil; i++ {
			snap.failures = append(snap.failures, d.failure())
		}
		nheld := d.count()
		for i := 0; i < nheld && d.err == nil; i++ {
			h := ckHeld{index: d.u64()}
			if d.boolean() {
				f := d.failure()
				h.fail = &f
			}
			h.stats = d.stats()
			h.cover = d.cover()
			h.activity = d.activity()
			snap.held = append(snap.held, h)
		}
		ck.snaps = append(ck.snaps, snap)
	}
	if ck.hasBoard {
		ncells := d.count()
		for i := 0; i < ncells && d.err == nil; i++ {
			c := ckCell{
				decided:     d.u64(),
				consec:      int(d.u64()),
				chainFirst:  d.u64(),
				quarantined: d.boolean(),
				e:           d.u64(),
				firstFail:   d.u64(),
			}
			npend := d.count()
			for j := 0; j < npend && d.err == nil; j++ {
				c.pending = append(c.pending, ckPending{
					ord: d.u64(), index: d.u64(),
					failed: d.boolean(), gaveUp: d.boolean()})
			}
			ck.board = append(ck.board, c)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpoint, len(d.b)-d.off)
	}
	return ck, nil
}

// saveCheckpoint writes the checkpoint atomically: temp file in the same
// directory, fsync, rename over the target, fsync the directory. A crash
// at any point leaves either the previous checkpoint or the new one,
// never a torn file.
func saveCheckpoint(path string, ck *checkpointState) error {
	payload := encodeCheckpoint(ck)
	var hdr ckEnc
	hdr.b = append(hdr.b, ckptMagic...)
	hdr.u16(ckptVersion)
	hdr.u32(crc32.ChecksumIEEE(payload))
	hdr.u32(uint32(len(payload)))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(hdr.b, payload...))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// loadCheckpoint reads and validates a checkpoint file. A missing file is
// reported as os.ErrNotExist so Resume can fall back to a fresh start.
func loadCheckpoint(path string) (*checkpointState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 14 || string(raw[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s is not a checkpoint file", ErrCheckpoint, path)
	}
	if v := binary.BigEndian.Uint16(raw[4:6]); v != ckptVersion {
		return nil, fmt.Errorf("%w: %s has version %d, this build reads %d", ErrCheckpoint, path, v, ckptVersion)
	}
	crc := binary.BigEndian.Uint32(raw[6:10])
	plen := int(binary.BigEndian.Uint32(raw[10:14]))
	if plen != len(raw)-14 {
		return nil, fmt.Errorf("%w: %s payload length %d, file carries %d", ErrCheckpoint, path, plen, len(raw)-14)
	}
	payload := raw[14:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: %s CRC mismatch (file %08x, payload %08x)", ErrCheckpoint, path, crc, got)
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}
