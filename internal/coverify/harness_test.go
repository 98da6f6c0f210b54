package coverify

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// TestRigsAttributePhases runs every network rig with a profile: each
// must attribute wall time to the encode and transport phases, decode
// where the device answers with a cell stream, and hdl plus the kernel's
// activity where an HDL model sits behind the coupling. A rig that skips
// the shared wiring prints zero windows here.
func TestRigsAttributePhases(t *testing.T) {
	vc := atm.VC{VPI: 1, VCI: 10}
	cases := []struct {
		name string
		// hdl: an HDL model behind the coupling; decode: the device
		// answers with a cell stream (the accounting unit only snoops).
		hdl, decode bool
		run         func(p *obs.RunProfile) error
	}{
		{"switch-direct", true, true, func(p *obs.RunProfile) error {
			return NewSwitchRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Batch: true, Profile: p}).
				Run(sim.Millisecond)
		}},
		{"switch-remote", true, true, func(p *obs.RunProfile) error {
			rig := NewSwitchRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Remote: true, Profile: p})
			err := rig.Run(sim.Millisecond)
			if cerr := rig.Close(); err == nil {
				err = cerr
			}
			return err
		}},
		{"policer", true, true, func(p *obs.RunProfile) error {
			return NewPolicerRig(PolicerRigConfig{
				Seed:      1,
				Contracts: []PolicerContract{{VC: vc, PeakInterval: 10 * sim.Microsecond, Tau: sim.Microsecond}},
				Sources:   []PolicerSource{{Model: traffic.NewCBR(100e3), VC: vc, Cells: 10}},
				Obs:       &obs.Run{Profile: p},
			}).Run(sim.Millisecond)
		}},
		{"acct", true, false, func(p *obs.RunProfile) error {
			return NewAcctRig(AcctRigConfig{
				Seed:    1,
				VCs:     []atm.VC{vc},
				Sources: []AcctSource{{Model: traffic.NewCBR(100e3), VC: 0, Cells: 10}},
				Obs:     &obs.Run{Profile: p},
			}).Run(sim.Millisecond)
		}},
		{"board", false, true, func(p *obs.RunProfile) error {
			rig, err := NewBoardRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Profile: p}, 4096)
			if err != nil {
				return err
			}
			return rig.Run(sim.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof := obs.NewRunProfile()
			if err := tc.run(prof); err != nil {
				t.Fatal(err)
			}
			windows := map[string]int64{}
			for _, ph := range prof.PhaseProf().Snapshot() {
				windows[ph.Name] = ph.Windows
			}
			want := map[string]bool{"encode": true, "transport": true, "decode": tc.decode, "hdl": tc.hdl}
			for ph, nonZero := range want {
				if got := windows[ph] > 0; got != nonZero {
					t.Errorf("phase %s: %d windows, want non-zero=%v", ph, windows[ph], nonZero)
				}
			}
			if events, _, _, _ := prof.Activity().Totals(); (events > 0) != tc.hdl {
				t.Errorf("HDL activity: %d signal events, want non-zero=%v", events, tc.hdl)
			}
		})
	}
}
