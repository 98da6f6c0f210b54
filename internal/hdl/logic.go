// Package hdl is an event-driven hardware simulator with VHDL semantics.
// It stands in for the Synopsys VHDL System Simulator (VSS) of the paper:
// IEEE-1164 nine-valued logic, resolved signals with multiple drivers,
// delta cycles, processes with sensitivity lists, and inertial/transport
// delay. The co-simulation entity of package cosim instantiates its
// bit-level side inside this simulator, exactly as the paper instantiates
// a C-language co-simulation entity inside VSS.
package hdl

import (
	"fmt"
	"strings"
)

// Logic is one IEEE-1164 std_logic value.
type Logic byte

// The nine std_logic values.
const (
	U  Logic = iota // uninitialized
	X               // forcing unknown
	L0              // forcing 0
	L1              // forcing 1
	Z               // high impedance
	W               // weak unknown
	WL              // weak 0
	WH              // weak 1
	DC              // don't care
)

var logicNames = [9]byte{'U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'}

// String returns the VHDL character literal for the value.
func (l Logic) String() string {
	if int(l) < len(logicNames) {
		return string(logicNames[l])
	}
	return "?"
}

// ParseLogic converts a VHDL character literal to a Logic value.
func ParseLogic(c byte) (Logic, error) {
	for i, n := range logicNames {
		if n == c || (c >= 'a' && c <= 'z' && n == c-'a'+'A') {
			return Logic(i), nil
		}
	}
	return U, fmt.Errorf("hdl: invalid std_logic literal %q", string(c))
}

// resolutionTable is the IEEE-1164 resolution function for two drivers.
var resolutionTable = [9][9]Logic{
	//         U  X  0  1  Z  W  L  H  -
	/* U */ {U, U, U, U, U, U, U, U, U},
	/* X */ {U, X, X, X, X, X, X, X, X},
	/* 0 */ {U, X, L0, X, L0, L0, L0, L0, X},
	/* 1 */ {U, X, X, L1, L1, L1, L1, L1, X},
	/* Z */ {U, X, L0, L1, Z, W, WL, WH, X},
	/* W */ {U, X, L0, L1, W, W, W, W, X},
	/* L */ {U, X, L0, L1, WL, W, WL, W, X},
	/* H */ {U, X, L0, L1, WH, W, W, WH, X},
	/* - */ {U, X, X, X, X, X, X, X, X},
}

// Resolve combines two driver contributions per IEEE 1164.
func Resolve(a, b Logic) Logic { return resolutionTable[a][b] }

// to01 reduces a value to the {0,1,X} domain: weak values convert to their
// strong equivalents, everything else becomes X.
func (l Logic) to01() Logic {
	switch l {
	case L0, WL:
		return L0
	case L1, WH:
		return L1
	default:
		return X
	}
}

// IsHigh reports whether the value reads as logical 1 ('1' or 'H').
func (l Logic) IsHigh() bool { return l.to01() == L1 }

// IsLow reports whether the value reads as logical 0 ('0' or 'L').
func (l Logic) IsLow() bool { return l.to01() == L0 }

// Defined reports whether the value is a defined binary level.
func (l Logic) Defined() bool { return l.to01() != X }

// Not returns the logical inverse with X propagation.
func (l Logic) Not() Logic {
	switch l.to01() {
	case L0:
		return L1
	case L1:
		return L0
	default:
		return X
	}
}

// And returns a AND b with X propagation (0 dominates).
func (l Logic) And(o Logic) Logic {
	a, b := l.to01(), o.to01()
	if a == L0 || b == L0 {
		return L0
	}
	if a == L1 && b == L1 {
		return L1
	}
	return X
}

// Or returns a OR b with X propagation (1 dominates).
func (l Logic) Or(o Logic) Logic {
	a, b := l.to01(), o.to01()
	if a == L1 || b == L1 {
		return L1
	}
	if a == L0 && b == L0 {
		return L0
	}
	return X
}

// Xor returns a XOR b with X propagation.
func (l Logic) Xor(o Logic) Logic {
	a, b := l.to01(), o.to01()
	if a == X || b == X {
		return X
	}
	if a == b {
		return L0
	}
	return L1
}

// LV is a logic vector. Index 0 is the least significant bit, matching
// VHDL's "downto" convention read right to left: LV{b0, b1, ...} prints as
// "...b1b0".
type LV []Logic

// NewLV returns a vector of the given width with every bit set to init.
func NewLV(width int, init Logic) LV {
	v := make(LV, width)
	for i := range v {
		v[i] = init
	}
	return v
}

// FromUint returns a vector of the given width holding the unsigned value
// (truncated to width bits).
func FromUint(val uint64, width int) LV {
	v := make(LV, width)
	for i := 0; i < width; i++ {
		if val&(1<<uint(i)) != 0 {
			v[i] = L1
		} else {
			v[i] = L0
		}
	}
	return v
}

// ParseLV parses a VHDL-style bit string, most significant bit first,
// e.g. "10ZX".
func ParseLV(s string) (LV, error) {
	v := make(LV, len(s))
	for i := 0; i < len(s); i++ {
		l, err := ParseLogic(s[len(s)-1-i])
		if err != nil {
			return nil, err
		}
		v[i] = l
	}
	return v, nil
}

// MustParseLV is ParseLV that panics on error, for literals in tests and
// device models.
func MustParseLV(s string) LV {
	v, err := ParseLV(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String prints the vector most significant bit first.
func (v LV) String() string {
	var b strings.Builder
	for i := len(v) - 1; i >= 0; i-- {
		b.WriteString(v[i].String())
	}
	return b.String()
}

// Uint converts the vector to an unsigned integer. ok is false when any
// bit is not a defined binary level or the width exceeds 64.
func (v LV) Uint() (val uint64, ok bool) {
	if len(v) > 64 {
		return 0, false
	}
	for i, l := range v {
		switch l.to01() {
		case L1:
			val |= 1 << uint(i)
		case L0:
		default:
			return 0, false
		}
	}
	return val, true
}

// Byte converts an 8-bit (or narrower) vector to a byte.
func (v LV) Byte() (byte, bool) {
	u, ok := v.Uint()
	if !ok || len(v) > 8 {
		return 0, false
	}
	return byte(u), ok
}

// Equal reports exact value equality (same width, same std_logic values).
func (v LV) Equal(o LV) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// TwoState reports whether every bit is a forcing 0 or 1 — no
// uninitialized, unknown, high-impedance, weak or don't-care values. A
// signal whose transitions are all two-state on both sides is a candidate
// for a compiled bit-parallel fast path that skips 9-value resolution.
func (v LV) TwoState() bool {
	for _, l := range v {
		if l != L0 && l != L1 {
			return false
		}
	}
	return true
}

// Defined reports whether every bit is a defined binary level.
func (v LV) Defined() bool {
	for _, l := range v {
		if !l.Defined() {
			return false
		}
	}
	return true
}

// Clone returns a copy of the vector.
func (v LV) Clone() LV {
	c := make(LV, len(v))
	copy(c, v)
	return c
}

// Not returns the bitwise inverse.
func (v LV) Not() LV {
	r := make(LV, len(v))
	for i := range v {
		r[i] = v[i].Not()
	}
	return r
}

// And returns the bitwise AND. Widths must match.
func (v LV) And(o LV) LV { return v.zip(o, Logic.And) }

// Or returns the bitwise OR. Widths must match.
func (v LV) Or(o LV) LV { return v.zip(o, Logic.Or) }

// Xor returns the bitwise XOR. Widths must match.
func (v LV) Xor(o LV) LV { return v.zip(o, Logic.Xor) }

func (v LV) zip(o LV, op func(Logic, Logic) Logic) LV {
	if len(v) != len(o) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(v), len(o)))
	}
	r := make(LV, len(v))
	for i := range v {
		r[i] = op(v[i], o[i])
	}
	return r
}

// Add returns v + o modulo 2^width plus the carry-out. Any undefined input
// bit makes the whole result X.
func (v LV) Add(o LV) (sum LV, carry Logic) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(v), len(o)))
	}
	if !v.Defined() || !o.Defined() {
		return NewLV(len(v), X), X
	}
	sum = make(LV, len(v))
	c := Logic(L0)
	for i := range v {
		a, b := v[i].to01(), o[i].to01()
		s := a.Xor(b).Xor(c)
		c = a.And(b).Or(c.And(a.Xor(b)))
		sum[i] = s
	}
	return sum, c
}

// Incr returns v + 1 modulo 2^width.
func (v LV) Incr() LV {
	one := NewLV(len(v), L0)
	if len(one) > 0 {
		one[0] = L1
	}
	s, _ := v.Add(one)
	return s
}

// Slice returns bits [lo, lo+width) as a new vector (VHDL slice of a
// downto range).
func (v LV) Slice(lo, width int) LV {
	if lo < 0 || lo+width > len(v) {
		panic(fmt.Sprintf("hdl: slice [%d,%d) out of range of width %d", lo, lo+width, len(v)))
	}
	return v[lo : lo+width].Clone()
}

// Concat returns o & v in VHDL terms: o becomes the new most significant
// part.
func (v LV) Concat(o LV) LV {
	r := make(LV, 0, len(v)+len(o))
	r = append(r, v...)
	r = append(r, o...)
	return r
}
