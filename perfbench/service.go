package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/api"
	"repro/client"
	"repro/internal/netlist"
)

// serviceClients is the closed loop's client count; with -workers 2 on
// the daemon, concurrency never exceeds two.
const serviceClients = 2

// daemon is one scanpowerd child process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startDaemon boots scanpowerd on an ephemeral loopback port and waits
// until it answers its health check.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no scanpowerd binary given (-daemon)")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		const marker = "msg=listening addr="
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), marker); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.url = <-addr:
	case <-d.exited:
		return nil, errors.New("scanpowerd exited during start-up")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("scanpowerd did not announce its address")
	}
	cl, err := client.New([]string{d.url}, client.Options{})
	if err != nil {
		d.stop()
		return nil, err
	}
	for {
		h, err := cl.Health(ctx, d.url)
		if err == nil && h.Status == "ok" {
			return d, nil
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs, and
// waits for the process to end.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// totalAlloc reads the daemon's cumulative allocated bytes from the
// memstats of /debug/vars.
func (d *daemon) totalAlloc(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, err
	}
	return vars.Memstats.TotalAlloc, nil
}

// jobSpec is one generated job: the circuit whose golden row it must
// match and the request that submits it.
type jobSpec struct {
	circuit string
	req     client.SubmitRequest
}

// jobGen hands out the workload's jobs in a seed-determined sequence.
type jobGen struct {
	mu   sync.Mutex
	n    int
	next func(i int) jobSpec
}

func (g *jobGen) take() jobSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.next(g.n)
	g.n++
	return s
}

// sweepGen draws a distinct per-input activity profile for every job on
// s1423, so no job coalesces with another.
func sweepGen(seed int64, inputs []string) func(int) jobSpec {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	return func(int) jobSpec {
		for {
			act := map[string]float64{}
			var key strings.Builder
			for _, in := range inputs {
				f := float64(rng.Intn(999)+1) / 1000
				act[in] = f
				fmt.Fprintf(&key, "%g,", f)
			}
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
			return jobSpec{circuit: sweepCircuit, req: client.SubmitRequest{
				Source:   &api.Source{Circuit: sweepCircuit},
				Activity: &api.Activity{Inputs: act},
				Wait:     true,
			}}
		}
	}
}

// coldGen cycles through the cold-design circuits in seed-shuffled
// rounds, naming every job afresh so its fingerprint is new.
func coldGen(seed int64, sources map[string]string) func(int) jobSpec {
	rng := rand.New(rand.NewSource(seed))
	var round []int
	return func(i int) jobSpec {
		if len(round) == 0 {
			round = rng.Perm(len(coldCircuits))
		}
		circ := coldCircuits[round[0]]
		round = round[1:]
		return jobSpec{circuit: circ, req: client.SubmitRequest{
			Source: &api.Source{Bench: sources[circ], Name: fmt.Sprintf("%s_%d_%d", circ, seed, i)},
			Wait:   true,
		}}
	}
}

// jobOut is one timed job as the client saw it.
type jobOut struct {
	spec  jobSpec
	lat   float64 // submit to decoded result, ms
	job   *client.Job
	cmp   *scanpower.Comparison
	bytes int
	err   error
}

// serviceEnv is a workload's set-up: the daemon, the client and the job
// sequence.
type serviceEnv struct {
	d       *daemon
	cl      *client.Client
	gen     *jobGen
	gold    golden
	sources map[string]string // cold-designs: circuit -> .bench source
}

func runSweep(ctx context.Context, o options, rec *record) error {
	return runService(ctx, o, rec, func(ctx context.Context, env *serviceEnv) error {
		c, err := scanpower.Benchmark(sweepCircuit)
		if err != nil {
			return err
		}
		inputs := make([]string, len(c.PIs))
		for i, pi := range c.PIs {
			inputs[i] = c.Nets[pi].Name
		}
		env.gen = &jobGen{next: sweepGen(o.seed, inputs)}
		// The warm-up job fills the Engine's ATPG cache; its default-only
		// profile is distinct from every generated one.
		def := 0.5
		warm := jobSpec{circuit: sweepCircuit, req: client.SubmitRequest{
			Source:   &api.Source{Circuit: sweepCircuit},
			Activity: &api.Activity{DefaultInput: &def},
			Wait:     true,
		}}
		out := runJob(ctx, env.cl, warm)
		if fail := checkJob(env.gold, out, true); fail != "" {
			return fmt.Errorf("warm-up job: %s", fail)
		}
		return nil
	})
}

func runColdDesigns(ctx context.Context, o options, rec *record) error {
	return runService(ctx, o, rec, func(ctx context.Context, env *serviceEnv) error {
		env.sources = map[string]string{}
		for _, name := range coldCircuits {
			src, err := renderBench(name)
			if err != nil {
				return err
			}
			env.sources[name] = src
		}
		env.gen = &jobGen{next: coldGen(o.seed, env.sources)}
		return nil
	})
}

// rssJobs is the job count at which the daemon's peak RSS is read. The
// daemon keeps every finished job, so its memory grows with the jobs
// served; reading it at a fixed count keeps throughput out of the figure.
// The closed loop runs on past the window until this many jobs are done.
const rssJobs = 200

// setUpService is one set-up of a service workload: golden rows, a fresh
// daemon, its client and the workload's own preparation. It returns the
// time until the daemon answers its health check (golden rows included)
// and the time of the preparation after it.
func setUpService(ctx context.Context, o options, prepare func(context.Context, *serviceEnv) error) (
	env *serviceEnv, boot, prep time.Duration, err error) {

	start := time.Now()
	env = &serviceEnv{}
	if env.gold, err = loadGolden(o.root, o.workload); err != nil {
		return nil, 0, 0, err
	}
	if env.d, err = startDaemon(ctx, o.daemon); err != nil {
		return nil, 0, 0, err
	}
	if env.cl, err = client.New([]string{env.d.url}, client.Options{}); err != nil {
		env.d.stop()
		return nil, 0, 0, err
	}
	boot = time.Since(start)
	if err := prepare(ctx, env); err != nil {
		env.d.stop()
		return nil, 0, 0, err
	}
	return env, boot, time.Since(start) - boot, nil
}

// runService drives one service workload: set-up (setupBefore times
// before the window, the last daemon serving it, and the rest of
// setupReps after it), a closed loop of serviceClients clients for the
// timed window, then correctness checks and the metrics.
func runService(ctx context.Context, o options, rec *record, prepare func(context.Context, *serviceEnv) error) error {
	var env *serviceEnv
	var setups, boots, preps []float64
	setUp := func(keep bool) error {
		start := time.Now()
		if len(setups) == 0 {
			start = driverStart
		}
		e, boot, prep, err := setUpService(ctx, o, prepare)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		boots = append(boots, boot.Seconds())
		preps = append(preps, prep.Seconds())
		if keep {
			env = e
		} else {
			e.d.stop()
		}
		return nil
	}
	defer func() {
		if env != nil && env.d != nil {
			env.d.stop()
		}
	}()
	for i := 0; i < setupBefore; i++ {
		if env != nil {
			env.d.stop()
			env = nil
		}
		if err := setUp(true); err != nil {
			return err
		}
	}

	var before, after *client.MetricsSnapshot
	var err error
	if o.trace {
		if before, err = env.cl.NodeMetricsSnapshot(ctx, env.d.url); err != nil {
			return err
		}
	}
	alloc0, err := env.d.totalAlloc(ctx)
	if err != nil {
		return err
	}

	var rss float64
	var rssErr error
	outs, window := closedLoop(ctx, env, o, func(done int) {
		if done == rssJobs {
			rss, rssErr = peakRSSMB(env.d.cmd.Process.Pid)
		}
	})

	alloc1, err := env.d.totalAlloc(ctx)
	if err != nil {
		return err
	}
	if o.trace {
		if after, err = env.cl.NodeMetricsSnapshot(ctx, env.d.url); err != nil {
			return err
		}
	}
	env.d.stop()
	env.d = nil
	for len(setups) < setupReps {
		if err := setUp(false); err != nil {
			return err
		}
	}
	rec.Samples["setups"] = len(setups)
	rec.Derived["setup_boot_s"] = median(boots)
	rec.Derived["setup_prepare_s"] = median(preps)

	var lat []float64
	ok := 0
	for _, out := range outs {
		fail := checkJob(env.gold, out, o.workload == "sweep")
		rec.op(fail)
		lat = append(lat, out.lat)
		if fail == "" {
			ok++
		}
	}
	rec.Samples["jobs"] = len(outs)
	if len(outs) == 0 {
		return errors.New("no job completed in the window")
	}
	p90 := quantile(lat, 0.9)
	rec.Samples["beyond_p90"] = countAbove(lat, p90)
	rec.Derived["window_s"] = window.Seconds()

	if o.trace {
		return serviceLayers(ctx, rec, env, outs, before, after)
	}
	if rssErr != nil {
		return rssErr
	}
	if rss == 0 {
		return fmt.Errorf("peak RSS not read: %d jobs done, want %d", len(outs), rssJobs)
	}
	rec.Samples["rss_at_jobs"] = rssJobs
	rec.set("setup_s", "s", median(setups))
	rec.set("jobs_per_s", "1/s", float64(ok)/window.Seconds())
	rec.set("job_p50_ms", "ms", median(lat))
	rec.set("job_p90_ms", "ms", p90)
	rec.set("peak_rss_mb", "MB", rss)
	rec.set("alloc_mb_per_job", "MB", float64(alloc1-alloc0)/1e6/float64(len(outs)))
	return nil
}

// closedLoop runs serviceClients clients, each submitting its next job
// only when the previous one's result is decoded, until the window ends
// and rssJobs jobs were issued (or, if set, until o.maxJobs jobs were
// issued). In-flight jobs finish; the window closes when the last one
// does. onDone is called with the count of jobs done after each one.
func closedLoop(ctx context.Context, env *serviceEnv, o options, onDone func(done int)) ([]jobOut, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var mu sync.Mutex
	var outs []jobOut
	issued := 0
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := ctx.Err() != nil
				if o.maxJobs > 0 {
					stop = stop || issued >= o.maxJobs
				} else {
					stop = stop || (time.Now().After(deadline) && issued >= rssJobs)
				}
				if !stop {
					issued++
				}
				mu.Unlock()
				if stop {
					return
				}
				out := runJob(ctx, env.cl, env.gen.take())
				mu.Lock()
				outs = append(outs, out)
				onDone(len(outs))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// runJob submits one job in wait mode and fetches its result.
func runJob(ctx context.Context, cl *client.Client, spec jobSpec) jobOut {
	out := jobOut{spec: spec}
	start := time.Now()
	out.job, out.err = cl.Submit(ctx, spec.req)
	if out.err == nil {
		if out.job.State != "done" {
			out.err = fmt.Errorf("job %s ended %s: %s", out.job.ID, out.job.State, out.job.Err)
		} else {
			var raw []byte
			out.cmp, raw, out.err = cl.Result(ctx, out.job)
			out.bytes = len(raw)
		}
	}
	out.lat = ms(time.Since(start).Seconds())
	return out
}

// checkJob verifies one job: it completed without coalescing, and its
// simulated columns equal the golden row. Sweep jobs must also carry
// their activity block, echoing the submitted profile.
func checkJob(gold golden, out jobOut, wantActivity bool) string {
	name := out.spec.circuit
	if out.err != nil {
		return fmt.Sprintf("%s: %v", name, out.err)
	}
	if out.job.Coalesced {
		return fmt.Sprintf("%s: job %s coalesced onto an earlier job", name, out.job.ID)
	}
	if fail := gold.check(name, out.cmp); fail != "" {
		return fail
	}
	if !wantActivity {
		return ""
	}
	a := out.cmp.Activity
	if a == nil || a.Source != "profile" {
		return fmt.Sprintf("%s: job %s has no activity block", name, out.job.ID)
	}
	for in, f := range out.spec.req.Activity.Inputs {
		if a.Inputs[in] != f {
			return fmt.Sprintf("%s: job %s activity of %s is %v, submitted %v", name, out.job.ID, in, a.Inputs[in], f)
		}
	}
	if !(a.TraditionalWeightedPerHz > a.InputControlWeightedPerHz &&
		a.InputControlWeightedPerHz > a.ProposedWeightedPerHz && a.ProposedWeightedPerHz > 0) {
		return fmt.Sprintf("%s: job %s weighted columns out of order", name, out.job.ID)
	}
	return ""
}

// metricDelta is the change of the daemon's registry across the window:
// counters, and histogram sums, each summed over every series of a
// metric name whose labels contain all of the given label pairs.
type metricDelta struct{ before, after *client.MetricsSnapshot }

func (m metricDelta) counter(name string, labels ...string) float64 {
	sum := func(s *client.MetricsSnapshot) float64 {
		t := 0.0
		for k, v := range s.Counters {
			if seriesMatch(k, name, labels) {
				t += float64(v)
			}
		}
		return t
	}
	return sum(m.after) - sum(m.before)
}

func (m metricDelta) histSum(name string, labels ...string) float64 {
	sum := func(s *client.MetricsSnapshot) float64 {
		t := 0.0
		for k, h := range s.Histograms {
			if seriesMatch(k, name, labels) {
				t += h.Sum
			}
		}
		return t
	}
	return sum(m.after) - sum(m.before)
}

func seriesMatch(series, name string, labels []string) bool {
	base, rest, _ := strings.Cut(series, "{")
	if base != name {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(rest, l) {
			return false
		}
	}
	return true
}

// extrapolatedServiceLayers are the service workloads' per-layer figures
// the daemon does not measure. They are estimated from a single-process
// replay of each distinct circuit, scaled by the jobs (or ATPG cache
// misses) that ran it, while the daemon ran two workers: they can
// disagree with the daemon's own stage times, and no figure is derived
// by subtracting one from the other.
var extrapolatedServiceLayers = []string{
	"power.measure_ms", "power.prep_ms", "power.stimulus_ms", "power.eval_ms", "power.leak_ms",
	"power.toggle_ms", "power.gate_evals", "power.ns_per_gate_eval", "core.addmux_ms", "core.other_ms",
	"atpg.faultsim_ms", "atpg.patterns", "parse.ms", "techmap.ms",
}

// serviceLayers reports the traced figures of a service window. What the
// daemon measures comes from its registry, and service figures from the
// job documents. The rest, extrapolatedServiceLayers, is estimated: the
// measurement split, AddMUX and fault-simulation time from an in-process
// replay of each distinct circuit, parse and techmap time from timing the
// same calls on each distinct inline source.
func serviceLayers(ctx context.Context, rec *record, env *serviceEnv, outs []jobOut,
	before, after *client.MetricsSnapshot) error {

	md := metricDelta{before, after}
	out := layers{}
	stage := func(s string) float64 { return ms(md.histSum("scanpower_stage_seconds", fmt.Sprintf("stage=%q", s))) }
	sub := func(s string) float64 { return ms(md.histSum("scanpower_substage_seconds", fmt.Sprintf("sub=%q", s))) }

	out["engine.atpg_ms"] = stage("atpg")
	out["engine.traditional_ms"] = stage("traditional")
	out["engine.input_control_ms"] = stage("input-control")
	out["engine.proposed_ms"] = stage("proposed")
	out["engine.cache_hits"] = md.counter("scanpower_atpg_cache_hits_total")
	out["engine.cache_misses"] = md.counter("scanpower_atpg_cache_misses_total")
	out["atpg.random_ms"] = sub("random")
	out["atpg.podem_ms"] = sub("podem")
	out["atpg.compact_ms"] = sub("compact")
	out["atpg.other_ms"] = out["engine.atpg_ms"] - out["atpg.random_ms"] - out["atpg.podem_ms"] - out["atpg.compact_ms"]
	out["atpg.podem_detected"] = md.counter("scanpower_podem_faults_total", `outcome="detected"`)
	out["atpg.podem_aborted"] = md.counter("scanpower_podem_faults_total", `outcome="aborted"`)
	out["atpg.podem_untestable"] = md.counter("scanpower_podem_faults_total", `outcome="untestable"`)
	out["atpg.faults_attempted"] = out["atpg.podem_detected"] + out["atpg.podem_aborted"] + out["atpg.podem_untestable"]
	out["atpg.backtracks"] = md.histSum("scanpower_podem_backtracks")
	out["atpg.faultsim_lanes"] = md.counter("scanpower_atpg_faultsim_lanes_total")
	out["core.obs_ms"] = sub("observability")
	out["core.blocking_ms"] = sub("blocking")
	out["core.fill_ms"] = sub("fill")
	out["core.reorder_ms"] = sub("reorder")
	out["core.justify_success"] = md.counter("scanpower_justify_total", `result="success"`)
	out["core.justify_attempts"] = out["core.justify_success"] + md.counter("scanpower_justify_total", `result="fail"`)
	out["core.justify_backtracks"] = md.histSum("scanpower_justify_backtracks")
	out["core.obs_samples"] = md.counter("scanpower_obs_samples_total")
	out["core.mc_lanes"] = md.counter("scanpower_mc_packed_lanes_total")
	out["power.cycles"] = md.counter("scanpower_power_packed_lanes_total")
	out["service.coalesced"] = md.counter("scanpower_service_jobs_coalesced_total")
	out["service.rejected"] = md.counter("scanpower_service_jobs_rejected_total")

	// Job documents.
	perCircuit := map[string]int{}
	jobs := 0
	for _, j := range outs {
		if j.err != nil {
			continue
		}
		jobs++
		perCircuit[j.spec.circuit]++
		created, started, finished := j.job.Created, j.job.Started, j.job.Finished
		out["service.queue_wait_ms"] += ms(started.Sub(created).Seconds())
		out["service.run_ms"] += ms(finished.Sub(started).Seconds())
		out["service.overhead_ms"] += j.lat - ms(finished.Sub(created).Seconds())
		out["service.result_bytes"] += float64(j.bytes)
	}
	out["engine.unattributed_ms"] = out["service.run_ms"] - out["engine.atpg_ms"] - out["engine.traditional_ms"] -
		out["engine.input_control_ms"] - out["engine.proposed_ms"]

	// Replays of the distinct circuits.
	atpgShare := ratio(out["engine.cache_misses"], float64(jobs))
	cfg := scanpower.DefaultConfig()
	out["parse.ms"], out["techmap.ms"] = 0, 0
	rec.Circuits = map[string]map[string]float64{}
	for _, circ := range sortedKeys(perCircuit) {
		n := float64(perCircuit[circ])
		load := func() (*netlist.Circuit, error) { return scanpower.Benchmark(circ) }
		if src, ok := env.sources[circ]; ok {
			load = func() (*netlist.Circuit, error) { return loadInline(src, circ) }
			p, t, err := timeInline(src, circ)
			if err != nil {
				return err
			}
			out["parse.ms"] += p * n
			out["techmap.ms"] += t * n
		}
		rp, err := replay(ctx, load, cfg)
		if err != nil {
			return err
		}
		fail := env.gold.check(circ, rp.cmp)
		if fail != "" {
			fail = "replay " + fail
		}
		rec.op(fail)
		for _, k := range []string{"power.measure_ms", "power.prep_ms", "power.stimulus_ms", "power.eval_ms",
			"power.leak_ms", "power.toggle_ms", "power.gate_evals", "core.addmux_ms", "core.other_ms"} {
			out[k] += rp.l[k] * n
		}
		out["atpg.faultsim_ms"] += rp.l["atpg.faultsim_ms"] * n * atpgShare
		out["atpg.patterns"] += rp.l["atpg.patterns"] * n * atpgShare
		finishLayers(rp.l)
		rec.Circuits[circ] = rp.l
	}
	finishLayers(out)
	// The daemon's window carries no driver-side tracing: the registry is
	// read only at the window's edges.
	out["trace.overhead_pct"] = 0
	rec.Samples["replayed_circuits"] = len(perCircuit)
	rec.Sources = map[string]string{
		"engine.*, atpg.* (but faultsim_ms, patterns), core.* (but addmux_ms, other_ms), power.cycles, service.coalesced, service.rejected": "daemon registry delta over the window",
		"service.queue_wait_ms, service.run_ms, service.overhead_ms, service.result_bytes, engine.unattributed_ms":                          "job documents and client latency",
		"power.* times, power.gate_evals, core.addmux_ms, core.other_ms":                                                                    "extrapolated: single-process replay of each distinct circuit x its job count",
		"atpg.faultsim_ms, atpg.patterns": "extrapolated: single-process replay x ATPG cache misses",
		"parse.ms, techmap.ms":            "extrapolated: timed ParseBench / techmap of each distinct inline source x its job count",
		"trace.overhead_pct":              "0: the window itself is untraced",
	}
	rec.Extrapolated = extrapolatedServiceLayers
	setLayers(rec, out)
	return nil
}

// timeInline times the two steps scanpowerd takes on an inline .bench
// source — parse, then techmap when not already mapped — as the median
// of three calls each, in ms.
func timeInline(src, name string) (parse, techmap float64, err error) {
	var ps, ts []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		c, err := scanpower.ParseBench(src, name)
		if err != nil {
			return 0, 0, err
		}
		ps = append(ps, ms(time.Since(t).Seconds()))
		t = time.Now()
		if _, err := mapInline(c); err != nil {
			return 0, 0, err
		}
		ts = append(ts, ms(time.Since(t).Seconds()))
	}
	return median(ps), median(ts), nil
}

// setLayers records every per-layer figure with its unit.
func setLayers(rec *record, l layers) {
	for _, k := range sortedKeys(l) {
		rec.set(k, unitOf(k), l[k])
	}
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_yield"):
		return "ratio"
	case strings.HasSuffix(name, "ns_per_gate_eval"):
		return "ns"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	}
	return "count"
}
