// Package board models the configurable hardware test board of §3.3
// (RAVEN, ref. [16] of the paper): a bit-stream interface of 16 byte
// lanes (128 I/O pins), each lane configurable in direction and speed,
// backed by stimulus and response memory units, driven in repeated test
// cycles — a software activity phase that configures the board and loads
// stimuli over the SCSI bus, a hardware activity phase that clocks the
// device under test at real-time speed (up to 20 MHz), and a software
// read-back phase.
//
// The "real hardware" mounted on the board is a cyclesim.Device — a
// cycle-based black box playing the role of the fabricated chip.
package board

import (
	"fmt"

	"castanet/internal/cyclesim"
)

// Board geometry and limits, matching the paper's description.
const (
	ByteLanes   = 16
	PinsPerLane = 8
	// MaxClockHz is the maximum board clock of the current implementation.
	MaxClockHz = 20e6
	// MinCycleLen and MaxCycleLen bound one hardware test cycle, set by
	// the board's memory configuration.
	MinCycleLen = 1
	MaxCycleLen = 1 << 16
)

// LaneDir is a byte lane's direction, from the board's perspective:
// Drive lanes carry stimuli to the device, Sample lanes capture device
// outputs.
type LaneDir int

// Lane directions.
const (
	Unused LaneDir = iota
	Drive
	Sample
	// Bidir lanes switch direction under control of a device-driven
	// read/write flag (bus interfaces, §3.3).
	Bidir
)

// String names the direction.
func (d LaneDir) String() string {
	switch d {
	case Unused:
		return "unused"
	case Drive:
		return "drive"
	case Sample:
		return "sample"
	case Bidir:
		return "bidir"
	default:
		return "?"
	}
}

// LaneConfig configures one byte lane.
type LaneConfig struct {
	Dir LaneDir
	// Divider divides the board clock for this lane (configurable lane
	// speed); 0 and 1 both mean full speed. A lane with divider n
	// presents/captures a new value every n board cycles.
	Divider int
}

// PinRange places a device port's bits on a lane: Bits bits starting at
// StartBit. This is exactly the per-entry information of the Fig.-5
// configuration data set (byte lane ID, start bit position, number of
// bits).
type PinRange struct {
	Lane     int
	StartBit int
	Bits     int
}

// InportMapping routes stimulus bits to one device input port.
type InportMapping struct {
	Port string // device input port name
	Pins PinRange
}

// OutportMapping captures one device output port into response memory.
type OutportMapping struct {
	Port string // device output port name
	Pins PinRange
}

// IOPortMapping models a bidirectional bus interface with three bit-level
// signals: an input port, an output port, and a device-driven control
// port selecting the direction (§3.3).
type IOPortMapping struct {
	InPort   string // device input port (board drives when device reads)
	OutPort  string // device output port (board samples when device writes)
	CtrlPort string // device output port carrying the read/write flag
	// WriteValue is the control-port value meaning "device drives the
	// bus" (predefined read/write flag).
	WriteValue uint64
	Pins       PinRange
}

// ConfigDataSet is the Fig.-5 configuration data set: lane setup plus the
// inport, outport, I/O-port and control-port mappings.
type ConfigDataSet struct {
	Lanes    [ByteLanes]LaneConfig
	Inports  []InportMapping
	Outports []OutportMapping
	IOPorts  []IOPortMapping
}

// Validate checks the configuration against the board geometry and the
// device's port list: pin ranges in bounds, no overlapping assignments on
// a lane, widths matching the device ports, directions consistent.
func (c *ConfigDataSet) Validate(dev cyclesim.Device) error {
	type claim struct {
		what string
		dir  LaneDir
	}
	pins := make(map[int]claim) // absolute pin index -> claimant

	claimRange := func(what string, pr PinRange, dir LaneDir) error {
		if pr.Lane < 0 || pr.Lane >= ByteLanes {
			return fmt.Errorf("board: %s: lane %d out of range", what, pr.Lane)
		}
		if pr.Bits <= 0 || pr.StartBit < 0 || pr.StartBit+pr.Bits > PinsPerLane {
			return fmt.Errorf("board: %s: bits [%d,%d) exceed lane width", what, pr.StartBit, pr.StartBit+pr.Bits)
		}
		laneDir := c.Lanes[pr.Lane].Dir
		if laneDir != dir {
			return fmt.Errorf("board: %s: lane %d is %v, mapping needs %v", what, pr.Lane, laneDir, dir)
		}
		for b := pr.StartBit; b < pr.StartBit+pr.Bits; b++ {
			abs := pr.Lane*PinsPerLane + b
			if prev, taken := pins[abs]; taken {
				return fmt.Errorf("board: %s overlaps %s at pin %d", what, prev.what, abs)
			}
			pins[abs] = claim{what: what, dir: dir}
		}
		return nil
	}

	portWidth := func(name string, dir cyclesim.Dir) (int, error) {
		for _, p := range dev.Ports() {
			if p.Name == name {
				if p.Dir != dir {
					return 0, fmt.Errorf("board: device port %q has wrong direction", name)
				}
				return p.Width, nil
			}
		}
		return 0, fmt.Errorf("board: device has no port %q", name)
	}

	for _, m := range c.Inports {
		w, err := portWidth(m.Port, cyclesim.In)
		if err != nil {
			return err
		}
		if w != m.Pins.Bits {
			return fmt.Errorf("board: inport %q is %d bits, mapping has %d", m.Port, w, m.Pins.Bits)
		}
		if err := claimRange("inport "+m.Port, m.Pins, Drive); err != nil {
			return err
		}
	}
	for _, m := range c.Outports {
		w, err := portWidth(m.Port, cyclesim.Out)
		if err != nil {
			return err
		}
		if w != m.Pins.Bits {
			return fmt.Errorf("board: outport %q is %d bits, mapping has %d", m.Port, w, m.Pins.Bits)
		}
		if err := claimRange("outport "+m.Port, m.Pins, Sample); err != nil {
			return err
		}
	}
	for _, m := range c.IOPorts {
		wi, err := portWidth(m.InPort, cyclesim.In)
		if err != nil {
			return err
		}
		wo, err := portWidth(m.OutPort, cyclesim.Out)
		if err != nil {
			return err
		}
		if _, err := portWidth(m.CtrlPort, cyclesim.Out); err != nil {
			return err
		}
		if wi != m.Pins.Bits || wo != m.Pins.Bits {
			return fmt.Errorf("board: ioport %q/%q widths %d/%d do not match %d pins",
				m.InPort, m.OutPort, wi, wo, m.Pins.Bits)
		}
		if err := claimRange("ioport "+m.InPort, m.Pins, Bidir); err != nil {
			return err
		}
	}
	for lane, lc := range c.Lanes {
		if lc.Divider < 0 {
			return fmt.Errorf("board: lane %d: negative divider", lane)
		}
		_ = lane
	}
	return nil
}
