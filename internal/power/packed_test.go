package power

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// reportsIdentical returns "" when a and b agree on every field to the
// last bit, else a description of the first difference. The packed kernel
// promises bit-identity, so no tolerance is applied.
func reportsIdentical(a, b Report) string {
	switch {
	case a.Cycles != b.Cycles:
		return "Cycles"
	case a.DynamicPerHz != b.DynamicPerHz:
		return "DynamicPerHz"
	case a.PeakDynamicPerHz != b.PeakDynamicPerHz:
		return "PeakDynamicPerHz"
	case a.StaticUW != b.StaticUW:
		return "StaticUW"
	case a.MeanTogglesPerCycle != b.MeanTogglesPerCycle:
		return "MeanTogglesPerCycle"
	case a.MeanLeakNA != b.MeanLeakNA:
		return "MeanLeakNA"
	}
	return ""
}

func randomPatterns(rng *rand.Rand, c *netlist.Circuit, n int) []scan.Pattern {
	pats := make([]scan.Pattern, n)
	for i := range pats {
		pats[i] = scan.Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
		sim.RandomVector(rng, pats[i].PI)
		sim.RandomVector(rng, pats[i].State)
	}
	return pats
}

// TestMeasureScanPackedMatchesSlow: the bit-parallel kernel must agree
// with the full re-evaluation path bit for bit, on s344 and the six
// circuits of the benchmark's cold-designs workload, across structures,
// single and multiple chains, and batch-boundary-crossing pattern counts.
func TestMeasureScanPackedMatchesSlow(t *testing.T) {
	lm := leakage.Default()
	cm := DefaultCapModel()
	rng := rand.New(rand.NewSource(21))
	for _, name := range []string{"s344", "s641", "s713", "s1196", "s1238", "s1423", "s1494"} {
		p, _ := iscas.ByName(name)
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []scan.ShiftConfig{scan.Traditional(c)}
		withMux := scan.Traditional(c)
		for f := range withMux.Muxed {
			if f%2 == 0 {
				withMux.Muxed[f] = true
				withMux.MuxVal[f] = f%4 == 0
			}
		}
		withMux.PIHold[0] = logic.One
		cfgs = append(cfgs, withMux)
		three, err := scan.NewChains(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		runners := []scan.Runner{scan.New(c), three}

		for _, nPats := range []int{1, 12} {
			pats := randomPatterns(rng, c, nPats)
			for ci, cfg := range cfgs {
				for ri, ch := range runners {
					slow, err := measureScanOpts(ch, pats, cfg, lm, cm, MeasureOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for _, lanes := range sim.LaneWidths() {
						packed, err := MeasureScanPackedOpts(ch, pats, cfg, lm, cm, MeasureOptions{Lanes: lanes})
						if err != nil {
							t.Fatal(err)
						}
						if field := reportsIdentical(slow, packed); field != "" {
							t.Errorf("%s pats=%d cfg=%d runner=%d lanes=%d: %s differs: serial %+v, packed %+v",
								name, nPats, ci, ri, lanes, field, slow, packed)
						}
					}
				}
			}
		}
	}
}

// TestMeasureScanPackedPartialBatch: a stream far shorter than one
// 64-lane batch must still match the serial kernel.
func TestMeasureScanPackedPartialBatch(t *testing.T) {
	c := buildShiftReg(t)
	lm := leakage.Default()
	cm := DefaultCapModel()
	pats := []scan.Pattern{
		{PI: []bool{true}, State: []bool{true, false, true}},
		{PI: []bool{false}, State: []bool{false, true, false}},
	}
	slow, err := MeasureScan(scan.New(c), pats, scan.Traditional(c), lm, cm)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := MeasureScanPacked(scan.New(c), pats, scan.Traditional(c), lm, cm)
	if err != nil {
		t.Fatal(err)
	}
	if field := reportsIdentical(slow, packed); field != "" {
		t.Errorf("%s differs: serial %+v, packed %+v", field, slow, packed)
	}
}

// TestMeasureScanPackedEmptyAndErrors pins the edge behaviour shared with
// the serial kernels.
func TestMeasureScanPackedEmptyAndErrors(t *testing.T) {
	c := buildShiftReg(t)
	rep, err := MeasureScanPacked(scan.New(c), nil, scan.Traditional(c), leakage.Default(), DefaultCapModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 0 || rep.DynamicPerHz != 0 {
		t.Errorf("empty run should measure nothing: %+v", rep)
	}
	bad := []scan.Pattern{{PI: []bool{true, true}, State: []bool{true, false, true}}}
	if _, err := MeasureScanPacked(scan.New(c), bad, scan.Traditional(c), leakage.Default(), DefaultCapModel()); err == nil {
		t.Error("bad pattern accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pats := []scan.Pattern{{PI: []bool{true}, State: []bool{true, false, true}}}
	if _, err := MeasureScanPackedOpts(scan.New(c), pats, scan.Traditional(c),
		leakage.Default(), DefaultCapModel(), MeasureOptions{Ctx: ctx}); err == nil {
		t.Error("cancelled context not honoured")
	}
	if _, err := MeasureScanPackedOpts(scan.New(c), pats, scan.Traditional(c),
		leakage.Default(), DefaultCapModel(), MeasureOptions{Lanes: 128}); err == nil {
		t.Error("unsupported lane width accepted")
	}
}

// TestMeasureScanPackedHooks: OnPattern fires once per pattern in order,
// and the OnBatch lane counts sum to the number of observed cycles.
func TestMeasureScanPackedHooks(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomPatterns(rand.New(rand.NewSource(5)), c, 5)
	for _, width := range sim.LaneWidths() {
		var patIdx []int
		lanes := 0
		batches := 0
		opts := MeasureOptions{
			Lanes:     width,
			OnPattern: func(i int) { patIdx = append(patIdx, i) },
			OnBatch: func(n int, _ time.Duration) {
				lanes += n
				batches++
				if n < 1 || n > width {
					t.Errorf("width %d: batch of %d lanes", width, n)
				}
			},
		}
		rep, err := MeasureScanPackedOpts(scan.New(c), pats, scan.Traditional(c),
			leakage.Default(), DefaultCapModel(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(patIdx) != len(pats) {
			t.Fatalf("width %d: OnPattern fired %d times, want %d", width, len(patIdx), len(pats))
		}
		for i, got := range patIdx {
			if got != i {
				t.Errorf("width %d: OnPattern[%d] = %d", width, i, got)
			}
		}
		// Observed cycles = counted transitions + the priming observation.
		if want := rep.Cycles + 1; lanes != want {
			t.Errorf("width %d: OnBatch lanes sum = %d, want %d", width, lanes, want)
		}
		if wantMin := (rep.Cycles + 1 + width - 1) / width; batches < wantMin {
			t.Errorf("width %d: OnBatch fired %d times, want >= %d", width, batches, wantMin)
		}
	}
}

// randomFuzzCircuit builds a small random, well-formed frozen circuit
// from a seed: a DAG of random gates over a few PIs and flops.
func randomFuzzCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("fuzz")
	nPI := 1 + rng.Intn(3)
	nFF := 1 + rng.Intn(4)
	var nets []string
	for i := 0; i < nPI; i++ {
		name := "pi" + string(rune('a'+i))
		c.AddPI(name)
		nets = append(nets, name)
	}
	for i := 0; i < nFF; i++ {
		q := "q" + string(rune('a'+i))
		nets = append(nets, q)
	}
	types := []logic.GateType{logic.Not, logic.Buf, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Mux2}
	nGates := 3 + rng.Intn(20)
	var driven []string
	for i := 0; i < nGates; i++ {
		tpe := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(3)
		switch tpe {
		case logic.Not, logic.Buf:
			arity = 1
		case logic.Mux2:
			arity = 3
		}
		ins := make([]string, arity)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := "g" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		c.AddGate(tpe, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	for i := 0; i < nFF; i++ {
		d := driven[rng.Intn(len(driven))]
		c.AddFF("f"+string(rune('a'+i)), "q"+string(rune('a'+i)), d)
	}
	c.MarkPO(driven[len(driven)-1])
	c.MustFreeze()
	return c
}

// FuzzMeasureScanPackedEquivalence drives random circuits, pattern sets,
// shift configurations and chain counts through both kernels and
// requires bit-equal reports. `make fuzz-equiv` runs this continuously;
// the seed corpus runs on every `go test`.
func FuzzMeasureScanPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0b1010), uint8(1))
	f.Add(int64(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(99), uint8(70), uint8(0xFF), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nPats, muxMask, nChains uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomFuzzCircuit(rng)
		np := int(nPats)%80 + 1
		pats := randomPatterns(rng, c, np)
		cfg := scan.Traditional(c)
		for fi := range cfg.Muxed {
			if muxMask>>(uint(fi)%8)&1 == 1 {
				cfg.Muxed[fi] = true
				cfg.MuxVal[fi] = rng.Intn(2) == 1
			}
		}
		for pi := range cfg.PIHold {
			cfg.PIHold[pi] = logic.Value(rng.Intn(3))
		}
		var ch scan.Runner = scan.New(c)
		if k := int(nChains) % 4; k > 1 {
			cs, err := scan.NewChains(c, k)
			if err != nil {
				t.Fatal(err)
			}
			ch = cs
		}
		lm := leakage.Default()
		cm := DefaultCapModel()
		slow, err := measureScanOpts(ch, pats, cfg, lm, cm, MeasureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range sim.LaneWidths() {
			packed, err := MeasureScanPackedOpts(ch, pats, cfg, lm, cm, MeasureOptions{Lanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			if field := reportsIdentical(slow, packed); field != "" {
				t.Fatalf("seed=%d np=%d mux=%x chains=%d lanes=%d: %s differs: serial %+v, packed %+v",
					seed, np, muxMask, nChains, lanes, field, slow, packed)
			}
		}
	})
}

// TestMeterReuse: one Meter measuring several structures on its netlist,
// in any order and on a structurally identical clone, reports exactly
// what a fresh kernel does, and refuses a different netlist.
func TestMeterReuse(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	lm := leakage.Default()
	cm := DefaultCapModel()
	pats := randomPatterns(rand.New(rand.NewSource(8)), c, 9)
	withMux := scan.Traditional(c)
	for f := range withMux.Muxed {
		withMux.Muxed[f] = f%3 == 0
	}
	clone := c.Clone()
	clone.MustFreeze()
	m, err := NewMeter(c, lm, cm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range []struct {
		ch  scan.Runner
		cfg scan.ShiftConfig
	}{
		{scan.New(c), scan.Traditional(c)},
		{scan.New(c), withMux},
		{scan.New(clone), scan.Traditional(c)},
		{scan.New(c), withMux},
	} {
		fresh, err := MeasureScanPacked(run.ch, pats, run.cfg, lm, cm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Measure(run.ch, pats, run.cfg, MeasureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if field := reportsIdentical(fresh, got); field != "" {
			t.Errorf("run %d: %s differs: fresh %+v, reused %+v", i, field, fresh, got)
		}
	}
	other := buildShiftReg(t)
	if _, err := m.Measure(scan.New(other), nil, scan.Traditional(other), MeasureOptions{}); err == nil {
		t.Error("Meter accepted a different netlist")
	}
}
