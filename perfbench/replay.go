package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// layers accumulates per-layer figures: busy times in milliseconds and
// work counts, keyed by metric name.
type layers map[string]float64

func (l layers) addDur(name string, d time.Duration) { l[name] += ms(d.Seconds()) }

func (l layers) addAll(o layers) {
	for k, v := range o {
		l[k] += v
	}
}

// replayTimeMetrics and replayCountMetrics are the figures one replay
// measures; ratios are derived from the totals by finishLayers.
var replayTimeMetrics = []string{
	"atpg.random_ms", "atpg.podem_ms", "atpg.compact_ms", "atpg.faultsim_ms", "atpg.other_ms",
	"power.measure_ms", "power.prep_ms", "power.stimulus_ms", "power.eval_ms", "power.leak_ms", "power.toggle_ms",
	"core.addmux_ms", "core.obs_ms", "core.blocking_ms", "core.fill_ms", "core.reorder_ms", "core.other_ms",
	"engine.atpg_ms", "engine.traditional_ms", "engine.input_control_ms", "engine.proposed_ms", "engine.unattributed_ms",
}

var replayCountMetrics = []string{
	"atpg.faults_attempted", "atpg.podem_detected", "atpg.podem_aborted", "atpg.podem_untestable",
	"atpg.backtracks", "atpg.patterns", "atpg.faultsim_lanes",
	"power.cycles", "power.gate_evals",
	"core.justify_attempts", "core.justify_success", "core.justify_backtracks", "core.obs_samples", "core.mc_lanes",
}

// replayed is one circuit's traced replay.
type replayed struct {
	cmp *scanpower.Comparison
	l   layers
	// pipeline is the wall time of the pipeline calls themselves — the
	// figure comparable to the Engine's untraced time for the circuit.
	// The extra calls that split measurement and AddMUX out are excluded.
	pipeline time.Duration
}

// scaledATPG mirrors the Engine's effort scaling of the ATPG options on
// large circuits. The replay must reproduce the Engine's Comparison
// exactly, so this copy cannot drift from the program's rule unnoticed.
func scaledATPG(c *netlist.Circuit, cfg scanpower.Config) atpg.Options {
	aopts := cfg.ATPG
	if cfg.ScaleATPG && c.NumGates() > 2000 {
		aopts.MaxRandomPatterns = 2048
		aopts.MaxBacktracks = 8
		aopts.MaxPodemFaults = 300
	}
	if cfg.Lanes != 0 {
		aopts.Lanes = cfg.Lanes
	}
	return aopts
}

// replay runs the Table I pipeline on one circuit in the Engine's stage
// order (ATPG, traditional, input-control, proposed) by calling each
// layer's exported function, timing every call and collecting the
// callbacks those functions accept. load supplies the circuit and is
// timed as part of the pipeline, as the Engine's Run does.
func replay(ctx context.Context, load func() (*netlist.Circuit, error), cfg scanpower.Config) (*replayed, error) {
	l := layers{}
	for _, k := range replayTimeMetrics {
		l[k] = 0
	}
	for _, k := range replayCountMetrics {
		l[k] = 0
	}
	var split time.Duration // time spent in the splitting calls
	t0 := time.Now()

	c, err := load()
	if err != nil {
		return nil, err
	}
	if !techmap.IsMapped(c, 4) {
		return nil, fmt.Errorf("replay: circuit %s is not library-mapped", c.Name)
	}

	// ATPG.
	ob := atpg.Observer{
		OnPodemFault: func(_ atpg.Fault, outcome atpg.PodemOutcome, _ int) {
			switch outcome {
			case atpg.PodemDetected:
				l["atpg.podem_detected"]++
			case atpg.PodemAbortedFault:
				l["atpg.podem_aborted"]++
			case atpg.PodemUntestableFault:
				l["atpg.podem_untestable"]++
			default:
				return
			}
			l["atpg.faults_attempted"]++
		},
		OnPhase: func(phase string, elapsed time.Duration, _ int) {
			l.addDur("atpg."+phase+"_ms", elapsed)
		},
		OnFaultSimBatch: func(_ string, lanes int, elapsed time.Duration) {
			l.addDur("atpg.faultsim_ms", elapsed)
			l["atpg.faultsim_lanes"] += float64(lanes)
		},
	}
	start := time.Now()
	res, err := atpg.GenerateObserved(ctx, c, scaledATPG(c, cfg), ob)
	atpgWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: ATPG: %w", c.Name, err)
	}
	l.addDur("engine.atpg_ms", atpgWall)
	l["atpg.other_ms"] += ms(atpgWall.Seconds()) - l["atpg.random_ms"] - l["atpg.podem_ms"] - l["atpg.compact_ms"]
	l["atpg.backtracks"] += float64(res.Backtracks)
	l["atpg.patterns"] += float64(len(res.Patterns))

	cmp := &scanpower.Comparison{
		Circuit:       c.Name,
		Stats:         c.ComputeStats(),
		Patterns:      len(res.Patterns),
		FaultCoverage: res.Coverage(),
	}

	measure := func(sc *netlist.Circuit, scfg scan.ShiftConfig) (power.Report, time.Duration, error) {
		rep, wall, sp, err := measureSplit(ctx, sc, res.Patterns, scfg, cfg, l)
		split += sp
		return rep, wall, err
	}
	coreObs := core.Observer{
		OnJustify: func(_ netlist.NetID, success bool, backtracks int) {
			l["core.justify_attempts"]++
			if success {
				l["core.justify_success"]++
			}
			l["core.justify_backtracks"] += float64(backtracks)
		},
		OnObsSamples: func(n int) { l["core.obs_samples"] += float64(n) },
		OnPhase: func(phase string, elapsed time.Duration) {
			if phase == "observability" {
				phase = "obs"
			}
			l.addDur("core."+phase+"_ms", elapsed)
		},
		OnMCBatch: func(_ string, lanes int, _ time.Duration) { l["core.mc_lanes"] += float64(lanes) },
	}
	var buildWall time.Duration
	build := func(opts core.Options) (*core.Solution, error) {
		opts.Observe = coreObs
		if cfg.MC != "" {
			opts.MC = core.MCBackend(cfg.MC)
		}
		if cfg.Lanes != 0 {
			opts.Lanes = cfg.Lanes
		}
		if opts.UseMux && opts.MuxMask == nil {
			// AddMUX runs inside the build without a phase callback;
			// time the same call on a private copy of the circuit.
			s := time.Now()
			work := c.Clone()
			if err := work.Freeze(); err != nil {
				return nil, err
			}
			a := time.Now()
			core.AddMUX(work, opts.Delay)
			l.addDur("core.addmux_ms", time.Since(a))
			split += time.Since(s)
		}
		s := time.Now()
		sol, err := core.BuildContext(ctx, c, opts)
		buildWall += time.Since(s)
		return sol, err
	}

	// Traditional scan.
	rep, wall, err := measure(c, scan.Traditional(c))
	if err != nil {
		return nil, err
	}
	cmp.Traditional = rep
	l.addDur("engine.traditional_ms", wall)

	// Input-control baseline. A stage's time excludes the splitting
	// calls made inside it.
	splitBefore := split
	s := time.Now()
	icSol, err := build(cfg.InputControl)
	if err != nil {
		return nil, fmt.Errorf("%s: input-control build: %w", c.Name, err)
	}
	cmp.InputControlStats = icSol.Stats
	if cmp.InputControl, _, err = measure(icSol.Circuit, icSol.Cfg); err != nil {
		return nil, err
	}
	l.addDur("engine.input_control_ms", time.Since(s)-(split-splitBefore))

	// Proposed structure.
	splitBefore = split
	s = time.Now()
	sol, err := build(cfg.Proposed)
	if err != nil {
		return nil, fmt.Errorf("%s: proposed build: %w", c.Name, err)
	}
	cmp.ProposedStats = sol.Stats
	if cmp.Proposed, _, err = measure(sol.Circuit, sol.Cfg); err != nil {
		return nil, err
	}
	l.addDur("engine.proposed_ms", time.Since(s)-(split-splitBefore))
	cmp.MuxOverheadUW = cfg.Leak.PowerUW(sol.MuxScanLeakNA(cfg.Leak))

	pipeline := time.Since(t0) - split
	l["core.other_ms"] += ms(buildWall.Seconds()) - l["core.obs_ms"] - l["core.blocking_ms"] -
		l["core.fill_ms"] - l["core.reorder_ms"] - l["core.addmux_ms"]
	l["engine.unattributed_ms"] += ms(pipeline.Seconds()) - l["engine.atpg_ms"] -
		l["engine.traditional_ms"] - l["engine.input_control_ms"] - l["engine.proposed_ms"]
	return &replayed{cmp: cmp, l: l, pipeline: pipeline}, nil
}

// measureSplit runs the packed measurement kernel on one structure — the
// call the Engine makes — and then splits its time by timing the kernel's
// own building blocks on the same structure and batches:
//
//	prep      sim.Compile, CapModel.NetLoads and Model.CircuitTables
//	stimulus  scan.Chain.Run with no-op hooks
//	eval      sim.Wide.Eval (sim.Packed.Eval at 64 lanes) per batch
//	leak      Model.AccumLeakPackedW per batch
//
// power.toggle_ms is the kernel's remainder after those four: transition
// counting, lane packing and the capture responses. It returns the
// report, the kernel's wall time, and the time the splitting calls took.
func measureSplit(ctx context.Context, c *netlist.Circuit, pats []scan.Pattern, scfg scan.ShiftConfig,
	cfg scanpower.Config, l layers) (power.Report, time.Duration, time.Duration, error) {

	cycles := 0
	mo := power.MeasureOptions{Ctx: ctx, Lanes: cfg.Lanes,
		OnBatch: func(lanes int, _ time.Duration) { cycles += lanes }}
	start := time.Now()
	rep, err := power.MeasureScanPackedOpts(scan.New(c), pats, scfg, cfg.Leak, cfg.Cap, mo)
	wall := time.Since(start)
	if err != nil {
		return rep, wall, 0, err
	}
	splitStart := time.Now()

	t := time.Now()
	prog := sim.Compile(c)
	_ = cfg.Cap.NetLoads(c)
	tabs := cfg.Leak.CircuitTables(c)
	prep := time.Since(t)

	noop := func(pi, ppi []bool) {}
	t = time.Now()
	if err := scan.New(c).Run(pats, scfg, scan.Hooks{ShiftCycle: noop}); err != nil {
		return rep, wall, 0, err
	}
	stim := time.Since(t)

	lanes, err := sim.ResolveLanes(cfg.Lanes)
	if err != nil {
		return rep, wall, 0, err
	}
	ww := lanes / 64
	var eval func(pi, ppi []uint64) []uint64
	if ww == 1 {
		eval = sim.NewPackedProgram(prog).Eval
	} else {
		eval = sim.NewWideProgram(prog).Eval
	}
	capSim := sim.NewPackedProgram(prog)
	piW := make([]uint64, len(c.PIs)*ww)
	ppiW := make([]uint64, c.NumFFs()*ww)
	capPI := make([]uint64, len(c.PIs))
	capPPI := make([]uint64, c.NumFFs())
	cyc := make([]float64, lanes)
	lane, shadowCycles := 0, 0
	var evalD, leakD time.Duration
	flush := func() {
		if lane == 0 {
			return
		}
		t := time.Now()
		words := eval(piW, ppiW)
		evalD += time.Since(t)
		clear(cyc[:lane])
		t = time.Now()
		cfg.Leak.AccumLeakPackedW(c, words, ww, lane, tabs, cyc)
		leakD += time.Since(t)
		shadowCycles += lane
		clear(piW)
		clear(ppiW)
		lane = 0
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	hooks := scan.Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			wk, sh := lane>>6, uint(lane&63)
			for i, v := range pi {
				piW[i*ww+wk] |= bit(v) << sh
			}
			for i, v := range ppi {
				ppiW[i*ww+wk] |= bit(v) << sh
			}
			if lane++; lane == lanes {
				flush()
			}
		},
		Capture: func(pi, ppi []bool) []bool {
			for i, v := range pi {
				capPI[i] = bit(v)
			}
			for i, v := range ppi {
				capPPI[i] = bit(v)
			}
			vals := capSim.Eval(capPI, capPPI)
			next := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				next[i] = vals[ff.D]&1 != 0
			}
			return next
		},
	}
	if err := scan.New(c).Run(pats, scfg, hooks); err != nil {
		return rep, wall, 0, err
	}
	flush()
	if shadowCycles != cycles {
		return rep, wall, 0, fmt.Errorf("%s: measurement split replayed %d cycles, kernel ran %d",
			c.Name, shadowCycles, cycles)
	}

	l.addDur("power.measure_ms", wall)
	l.addDur("power.prep_ms", prep)
	l.addDur("power.stimulus_ms", stim)
	l.addDur("power.eval_ms", evalD)
	l.addDur("power.leak_ms", leakD)
	l["power.toggle_ms"] += ms((wall - prep - stim - evalD - leakD).Seconds())
	l["power.cycles"] += float64(cycles)
	l["power.gate_evals"] += float64(cycles) * float64(prog.NumInstrs())
	return rep, wall, time.Since(splitStart), nil
}

// finishLayers adds the derived ratios to a layer total.
func finishLayers(l layers) {
	l["atpg.podem_yield"] = ratio(l["atpg.podem_detected"], l["atpg.faults_attempted"])
	l["core.justify_yield"] = ratio(l["core.justify_success"], l["core.justify_attempts"])
	l["power.ns_per_gate_eval"] = ratio(l["power.eval_ms"]*1e6, l["power.gate_evals"])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
