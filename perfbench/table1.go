package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro"
	"repro/internal/netlist"
)

// Each workload sets up setupReps times, setupBefore of them before the
// timed window and the rest after it, so that setup_s, their median,
// samples the host over the whole run and not only at its start.
const (
	setupReps   = 11
	setupBefore = 3
)

// table1Names is the Table I circuit list in a seed-drawn order. Every
// order is the same work: circuits are independent and each result is
// deterministic, so the seed changes nothing a counter sees.
func table1Names(seed int64) []string {
	names := scanpower.BenchmarkNames()
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) {
		names[i], names[j] = names[j], names[i]
	})
	return names
}

// table1Setup is the work before the first timed operation: the
// configuration, the golden rows, and resolving every circuit name.
func table1Setup(o options) (scanpower.Config, golden, []string, error) {
	cfg := scanpower.DefaultConfig()
	gold, err := loadGolden(o.root, "table1")
	if err != nil {
		return cfg, nil, nil, err
	}
	names := table1Names(o.seed)
	for _, n := range names {
		if _, err := scanpower.Benchmark(n); err != nil {
			return cfg, nil, nil, err
		}
		if gold[n] == nil {
			return cfg, nil, nil, fmt.Errorf("no golden row for %s", n)
		}
	}
	return cfg, gold, names, nil
}

// table1Run is one untraced Table I: every circuit on a fresh Engine with
// one worker and a cold pattern cache.
type table1Run struct {
	wall    time.Duration
	results []scanpower.Result
	hits    int64
	misses  int64
}

func runTable1Once(ctx context.Context, cfg scanpower.Config, names []string) (*table1Run, error) {
	e := &scanpower.Engine{Cfg: cfg, Workers: 1}
	run := &table1Run{results: make([]scanpower.Result, len(names))}
	start := time.Now()
	// Run and collect is RunAll, keeping per-circuit errors for the
	// correctness count.
	ch, err := e.Run(ctx, names)
	if err != nil {
		return nil, err
	}
	for r := range ch {
		run.results[r.Index] = r
	}
	run.wall = time.Since(start)
	run.hits, run.misses = e.CacheStats()
	return run, nil
}

// verify counts every circuit of run as one operation, checked against
// the golden rows.
func (run *table1Run) verify(gold golden, rec *record) {
	for _, r := range run.results {
		if r.Err != nil {
			rec.op(fmt.Sprintf("%s: %v", r.Name, r.Err))
		} else {
			rec.op(gold.check(r.Name, r.Comparison))
		}
	}
}

func runTable1(ctx context.Context, o options, rec *record) error {
	var setups []float64
	var cfg scanpower.Config
	var gold golden
	var names []string
	setUp := func() error {
		start := time.Now()
		if len(setups) == 0 {
			start = driverStart
		}
		var err error
		if cfg, gold, names, err = table1Setup(o); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	for len(setups) < setupBefore {
		if err := setUp(); err != nil {
			return err
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var walls, traced []float64
	var firstRun *table1Run
	var rss float64
	var layerRuns []map[string]layers
	for len(walls) == 0 || time.Now().Before(deadline) {
		run, err := runTable1Once(ctx, cfg, names)
		if err != nil {
			return err
		}
		run.verify(gold, rec)
		walls = append(walls, run.wall.Seconds())
		if firstRun == nil {
			firstRun = run
			// Peak RSS is read at a fixed amount of work, one Table I,
			// so that a faster program running more of them in the
			// window does not read differently.
			if rss, err = peakRSSMB(os.Getpid()); err != nil {
				return err
			}
		}
		if !o.trace {
			continue
		}
		// Traced mode alternates untraced Engine runs with traced
		// replays in the same window.
		per, pipeline, err := replayTable1(ctx, cfg, names, run, gold, rec)
		if err != nil {
			return err
		}
		traced = append(traced, pipeline.Seconds())
		layerRuns = append(layerRuns, per)
	}
	runtime.ReadMemStats(&m1)
	for len(setups) < setupReps {
		if err := setUp(); err != nil {
			return err
		}
	}
	rec.Samples["setups"] = len(setups)
	rec.Samples["table1_runs"] = len(walls)
	rec.Samples["circuits"] = len(walls) * len(names)
	rec.Derived["table1_s_min"] = quantile(walls, 0)
	rec.Derived["table1_s_max"] = quantile(walls, 1)
	rec.Derived["table1_s"] = median(walls)

	if o.trace {
		return table1Layers(rec, firstRun, layerRuns, walls, traced)
	}
	// A table1 job is one whole Table I: its median wall time is the
	// table1_s the ROADMAP counts.
	p90 := quantile(walls, 0.9)
	rec.Samples["beyond_p90"] = countAbove(walls, p90)
	rec.set("setup_s", "s", median(setups))
	rec.set("jobs_per_s", "1/s", 1/median(walls))
	rec.set("job_p50_ms", "ms", ms(median(walls)))
	rec.set("job_p90_ms", "ms", ms(p90))
	rec.set("peak_rss_mb", "MB", rss)
	rec.set("alloc_mb_per_job", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(walls)))
	return nil
}

// replayTable1 replays every circuit of an Engine run and checks that the
// replay reproduced each Comparison exactly. It returns the per-circuit
// layers and the replay's pipeline wall time.
func replayTable1(ctx context.Context, cfg scanpower.Config, names []string, run *table1Run,
	gold golden, rec *record) (map[string]layers, time.Duration, error) {

	per := map[string]layers{}
	var pipeline time.Duration
	for i, name := range names {
		rp, err := replay(ctx, func() (*netlist.Circuit, error) { return scanpower.Benchmark(name) }, cfg)
		if err != nil {
			return nil, 0, err
		}
		pipeline += rp.pipeline
		per[name] = rp.l
		switch want := run.results[i].Comparison; {
		case want == nil:
			rec.op(name + ": replay has no Engine result to match")
		case !reflect.DeepEqual(rp.cmp, want):
			rec.op(name + ": replay differs from the Engine's Comparison")
		default:
			rec.op(gold.check(name, rp.cmp))
		}
	}
	return per, pipeline, nil
}

// table1Layers reports the traced figures: busy times are the median over
// the window's replays of each per-Table-I total, counts come from the
// first replay and must repeat exactly in every later one.
func table1Layers(rec *record, first *table1Run, runs []map[string]layers, walls, traced []float64) error {
	totals := make([]layers, len(runs))
	for i, per := range runs {
		totals[i] = layers{}
		for _, l := range per {
			totals[i].addAll(l)
		}
		finishLayers(totals[i])
	}
	out := layers{}
	for _, k := range replayTimeMetrics {
		var xs []float64
		for _, t := range totals {
			xs = append(xs, t[k])
		}
		out[k] = median(xs)
	}
	for _, k := range replayCountMetrics {
		out[k] = totals[0][k]
		for i, t := range totals[1:] {
			if t[k] != out[k] {
				rec.op(fmt.Sprintf("counter %s moved between replays: %v then %v (replay %d)", k, out[k], t[k], i+2))
			}
		}
	}
	finishLayers(out)
	out["engine.cache_hits"] = float64(first.hits)
	out["engine.cache_misses"] = float64(first.misses)
	// Layers this workload does not exercise: no inline sources, no
	// service.
	for _, k := range []string{"parse.ms", "techmap.ms", "service.queue_wait_ms", "service.run_ms",
		"service.overhead_ms", "service.result_bytes", "service.coalesced", "service.rejected"} {
		out[k] = 0
	}
	out["trace.overhead_pct"] = (median(traced)/median(walls) - 1) * 100
	rec.Samples["replays"] = len(runs)
	rec.Circuits = map[string]map[string]float64{}
	for name, l := range runs[0] {
		finishLayers(l)
		rec.Circuits[name] = l
	}
	rec.Sources = map[string]string{"*": "in-process replay of the Table I pipeline"}
	setLayers(rec, out)
	return nil
}

// countAbove counts the samples strictly above x.
func countAbove(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}
