package scanpower

// Benchmark harness regenerating every table and figure of the paper:
//
//   - BenchmarkTableI/<circuit>   — one benchmark per Table I row. Each
//     run reports, via b.ReportMetric, the measured dynamic (µW/Hz ×1e9
//     for readability) and static (µW) power of the three structures and
//     the four improvement percentages — the exact columns of the table.
//   - BenchmarkFigure2           — the NAND2 45 nm leakage table.
//   - BenchmarkAblation*         — the design-choice studies DESIGN.md
//     calls out (observability directive, input reordering, don't-care
//     fill, MUX budget).
//   - Benchmark<Component>       — throughput of the substrates.
//
// Run: go test -bench=. -benchmem .

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/timing"
)

func benchCircuit(b *testing.B, name string) *netlist.Circuit {
	b.Helper()
	c, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTableI regenerates the paper's Table I row by row.
func BenchmarkTableI(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			c := benchCircuit(b, name)
			cfg := DefaultConfig()
			var cmp *Comparison
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmp, err = Compare(context.Background(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cmp.Traditional.DynamicPerHz*1e9, "trad_dyn_nW/GHz")
			b.ReportMetric(cmp.Traditional.StaticUW, "trad_stat_uW")
			b.ReportMetric(cmp.InputControl.DynamicPerHz*1e9, "ic_dyn_nW/GHz")
			b.ReportMetric(cmp.InputControl.StaticUW, "ic_stat_uW")
			b.ReportMetric(cmp.Proposed.DynamicPerHz*1e9, "prop_dyn_nW/GHz")
			b.ReportMetric(cmp.Proposed.StaticUW, "prop_stat_uW")
			b.ReportMetric(cmp.DynImprovementVsTraditional(), "dynT_%")
			b.ReportMetric(cmp.StaticImprovementVsTraditional(), "statT_%")
			b.ReportMetric(cmp.DynImprovementVsInputControl(), "dynIC_%")
			b.ReportMetric(cmp.StaticImprovementVsInputControl(), "statIC_%")
		})
	}
}

// BenchmarkFigure2 regenerates the NAND2 leakage table of Figure 2 and
// reports its four entries (paper: 78, 73, 264, 408 nA).
func BenchmarkFigure2(b *testing.B) {
	var f [4]float64
	for i := 0; i < b.N; i++ {
		m := leakage.New(leakage.DefaultParams())
		f = m.Figure2()
	}
	b.ReportMetric(f[0], "nand2_00_nA")
	b.ReportMetric(f[1], "nand2_01_nA")
	b.ReportMetric(f[2], "nand2_10_nA")
	b.ReportMetric(f[3], "nand2_11_nA")
}

// ablationSetup prepares circuit + patterns once per ablation benchmark.
func ablationSetup(b *testing.B, name string) (*netlist.Circuit, []scan.Pattern, Config) {
	b.Helper()
	c := benchCircuit(b, name)
	cfg := DefaultConfig()
	res, err := atpg.Generate(c, cfg.ATPG)
	if err != nil {
		b.Fatal(err)
	}
	return c, res.Patterns, cfg
}

func measureWith(b *testing.B, c *netlist.Circuit, pats []scan.Pattern,
	cfg Config, opts core.Options) power.Report {
	b.Helper()
	sol, err := core.Build(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := power.MeasureScan(scan.New(sol.Circuit), pats, sol.Cfg, cfg.Leak, cfg.Cap)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkAblationObsDirective compares the full flow against one whose
// choices are not directed by leakage observability.
func BenchmarkAblationObsDirective(b *testing.B) {
	c, pats, cfg := ablationSetup(b, "s641")
	var full, ablated power.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = measureWith(b, c, pats, cfg, cfg.Proposed)
		noObs := cfg.Proposed
		noObs.ObsDirected = false
		ablated = measureWith(b, c, pats, cfg, noObs)
	}
	b.ReportMetric(full.StaticUW, "full_stat_uW")
	b.ReportMetric(ablated.StaticUW, "noObs_stat_uW")
	b.ReportMetric(power.Improvement(ablated.StaticUW, full.StaticUW), "obs_gain_%")
}

// BenchmarkAblationReorder isolates the gate input reordering stage.
func BenchmarkAblationReorder(b *testing.B) {
	c, pats, cfg := ablationSetup(b, "s344")
	var full, ablated power.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = measureWith(b, c, pats, cfg, cfg.Proposed)
		noRe := cfg.Proposed
		noRe.ReorderInputs = false
		ablated = measureWith(b, c, pats, cfg, noRe)
	}
	b.ReportMetric(full.StaticUW, "full_stat_uW")
	b.ReportMetric(ablated.StaticUW, "noReorder_stat_uW")
	b.ReportMetric(power.Improvement(ablated.StaticUW, full.StaticUW), "reorder_gain_%")
}

// BenchmarkAblationFill isolates the random minimum-leakage don't-care
// fill against a single arbitrary completion.
func BenchmarkAblationFill(b *testing.B) {
	c, pats, cfg := ablationSetup(b, "s344")
	var full, ablated power.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = measureWith(b, c, pats, cfg, cfg.Proposed)
		oneFill := cfg.Proposed
		oneFill.FillTrials = 1
		oneFill.ObsDirected = false // greedy fill would mask the ablation
		ablated = measureWith(b, c, pats, cfg, oneFill)
	}
	b.ReportMetric(full.StaticUW, "full_stat_uW")
	b.ReportMetric(ablated.StaticUW, "oneFill_stat_uW")
	b.ReportMetric(power.Improvement(ablated.StaticUW, full.StaticUW), "fill_gain_%")
}

// BenchmarkAblationMuxBudget sweeps the MUX count (0%, 50%, 100% of the
// timing-feasible cells) and reports the dynamic power at each point.
func BenchmarkAblationMuxBudget(b *testing.B) {
	c, pats, cfg := ablationSetup(b, "s344")
	muxable, _ := core.AddMUX(c, cfg.Delay)
	var feasible []int
	for fi, ok := range muxable {
		if ok {
			feasible = append(feasible, fi)
		}
	}
	var dyn [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, frac := range []float64{0, 0.5, 1} {
			mask := make([]bool, c.NumFFs())
			for k := 0; k < int(frac*float64(len(feasible))+0.5); k++ {
				mask[feasible[k]] = true
			}
			opts := cfg.Proposed
			opts.MuxMask = mask
			dyn[j] = measureWith(b, c, pats, cfg, opts).DynamicPerHz
		}
	}
	b.ReportMetric(dyn[0]*1e9, "mux0_dyn_nW/GHz")
	b.ReportMetric(dyn[1]*1e9, "mux50_dyn_nW/GHz")
	b.ReportMetric(dyn[2]*1e9, "mux100_dyn_nW/GHz")
}

// ---- substrate throughput benchmarks ----

func BenchmarkSimEval(b *testing.B) {
	c := benchCircuit(b, "s1423")
	s := sim.New(c)
	rng := rand.New(rand.NewSource(1))
	pi := make([]bool, len(c.PIs))
	ppi := make([]bool, c.NumFFs())
	sim.RandomVector(rng, pi)
	sim.RandomVector(rng, ppi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(pi, ppi)
	}
	b.ReportMetric(float64(c.NumGates()), "gates")
}

func BenchmarkLeakageCircuit(b *testing.B) {
	c := benchCircuit(b, "s1423")
	lm := leakage.Default()
	state := make([]bool, c.NumNets())
	for i := range state {
		state[i] = i%3 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.CircuitLeakBool(c, state)
	}
}

func BenchmarkSTA(b *testing.B) {
	c := benchCircuit(b, "s5378")
	model := timing.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timing.Analyze(c, model)
	}
}

func BenchmarkATPG(b *testing.B) {
	c := benchCircuit(b, "s344")
	opts := atpg.DefaultOptions()
	var res *atpg.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = atpg.Generate(c, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Coverage()*100, "coverage_%")
	b.ReportMetric(float64(len(res.Patterns)), "patterns")
}

func BenchmarkFaultSim(b *testing.B) {
	c := benchCircuit(b, "s1423")
	fs := atpg.NewFaultSim(c)
	faults := atpg.AllFaults(c)
	rng := rand.New(rand.NewSource(2))
	pi := make([]bool, len(c.PIs))
	ppi := make([]bool, c.NumFFs())
	sim.RandomVector(rng, pi)
	sim.RandomVector(rng, ppi)
	fs.SetPattern(pi, ppi)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if fs.Detects(faults[i%len(faults)]) {
			n++
		}
	}
	_ = n
}

func BenchmarkFindControlledInputPattern(b *testing.B) {
	c := benchCircuit(b, "s641")
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(c, cfg.Proposed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObservability(b *testing.B) {
	c := benchCircuit(b, "s1423")
	lm := leakage.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.Estimate(c, lm, 128, rand.New(rand.NewSource(3)))
	}
}

func BenchmarkMeasureScan(b *testing.B) {
	c := benchCircuit(b, "s641")
	cfg := DefaultConfig()
	res, err := atpg.Generate(c, cfg.ATPG)
	if err != nil {
		b.Fatal(err)
	}
	ch := scan.New(c)
	tcfg := scan.Traditional(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.MeasureScan(ch, res.Patterns, tcfg, cfg.Leak, cfg.Cap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Patterns)*c.NumFFs()), "shift_cycles")
}

func BenchmarkReorderInputs(b *testing.B) {
	c := benchCircuit(b, "s1423")
	lm := leakage.Default()
	state := make([]logic.Value, c.NumNets())
	rng := rand.New(rand.NewSource(4))
	for i := range state {
		state[i] = logic.Value(rng.Intn(3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := c.Clone()
		clone.MustFreeze()
		core.ReorderInputs(clone, state, lm)
	}
}
