package power_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestMeterToggleProfile pins Meter.ToggleProfile to a per-cycle toggle
// count made the slow way — the bool scan loop driving the scalar
// simulator — on s344 under traditional scan and the proposed muxed
// structure, each through one chain and through three.
func TestMeterToggleProfile(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Build(c, core.ProposedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cfg.MuxCount() == 0 {
		t.Fatal("proposed structure has no muxed flops")
	}
	lm, cm := leakage.Default(), power.DefaultCapModel()
	rng := rand.New(rand.NewSource(5))
	pats := make([]scan.Pattern, 20)
	for i := range pats {
		pats[i] = scan.Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
		sim.RandomVector(rng, pats[i].PI)
		sim.RandomVector(rng, pats[i].State)
	}

	structures := []struct {
		name string
		c    *netlist.Circuit
		cfg  scan.ShiftConfig
	}{
		{"traditional", c, scan.Traditional(c)},
		{"proposed", sol.Circuit, sol.Cfg},
	}
	for _, st := range structures {
		three, err := scan.NewChains(st.c, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range []scan.Runner{scan.New(st.c), three} {
			want, err := slowProfile(ch, pats, st.cfg, cm)
			if err != nil {
				t.Fatal(err)
			}
			m, err := power.NewMeter(st.c, lm, cm, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Measure(ch, pats, st.cfg, power.MeasureOptions{}); err != nil {
				t.Fatal(err)
			}
			got := m.ToggleProfile()
			active := 0
			for n := range want {
				if got[n] != want[n] {
					t.Fatalf("%s %T: net %s: profile %v, want %v",
						st.name, ch, st.c.Nets[n].Name, got[n], want[n])
				}
				if want[n] > 0 {
					active++
				}
			}
			if active == 0 {
				t.Errorf("%s %T: no net toggled", st.name, ch)
			}
		}
	}
}

// slowProfile counts each net's transitions between consecutive shift
// cycles with the scalar simulator and weighs the count by the net's load.
func slowProfile(ch scan.Runner, pats []scan.Pattern, cfg scan.ShiftConfig,
	cm power.CapModel) ([]float64, error) {

	c := ch.Circuit()
	s := sim.New(c)
	toggles := make([]int64, c.NumNets())
	prev := make([]bool, c.NumNets())
	primed := false
	hooks := scan.Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			st := s.Eval(pi, ppi)
			if primed {
				for n, v := range st {
					if v != prev[n] {
						toggles[n]++
					}
				}
			}
			copy(prev, st)
			primed = true
		},
		Capture: func(pi, ppi []bool) []bool { return s.NextState(s.Eval(pi, ppi)) },
	}
	if err := ch.Run(pats, cfg, hooks); err != nil {
		return nil, err
	}
	loads := cm.NetLoads(c)
	profile := make([]float64, len(toggles))
	for n, k := range toggles {
		profile[n] = float64(k) * loads[n]
	}
	return profile, nil
}
