package scanpower

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Metric families emitted by Recorder. Label sets: stage ∈ {atpg,
// traditional, input-control, proposed}, outcome ∈ {detected, untestable,
// aborted, skipped}, result ∈ {success, fail}.
const (
	MetricStageSeconds     = "scanpower_stage_seconds"    // histogram{stage}
	MetricSubStageSeconds  = "scanpower_substage_seconds" // histogram{stage,sub}
	MetricCacheHits        = "scanpower_atpg_cache_hits_total"
	MetricCacheMisses      = "scanpower_atpg_cache_misses_total"
	MetricPodemFaults      = "scanpower_podem_faults_total" // counter{outcome}
	MetricPodemBacktracks  = "scanpower_podem_backtracks"   // histogram
	MetricJustify          = "scanpower_justify_total"      // counter{result}
	MetricJustifyBacktrack = "scanpower_justify_backtracks" // histogram
	MetricObsSamples       = "scanpower_obs_samples_total"
	MetricPatterns         = "scanpower_patterns_measured_total"
	MetricCircuitsDone     = "scanpower_circuits_done_total"
	// MetricPackedLanes counts scan cycles evaluated by the bit-parallel
	// measurement kernel.
	MetricPackedLanes = "scanpower_power_packed_lanes_total"
	// MetricATPGFaultSimLanes counts pattern lanes evaluated by the
	// packed fault-dropping passes of the ATPG stage ("drop" buffer
	// flushes plus "compact" compaction chunks).
	MetricATPGFaultSimLanes = "scanpower_atpg_faultsim_lanes_total"
	// MetricMCLanes counts Monte-Carlo lanes (observability vectors plus
	// fill trials) evaluated by the packed MC kernels inside the structure
	// builds.
	MetricMCLanes = "scanpower_mc_packed_lanes_total"
)

// Recorder bridges Hooks to the telemetry substrate: it aggregates the
// event stream into registry metrics, emits the run → circuit → stage
// → sub-stage span hierarchy to a TraceWriter, and accumulates the
// per-circuit stage record a run manifest embeds. Either sink may be nil:
// a nil registry drops metrics, a nil trace writer drops spans, and the
// manifest record is kept regardless.
//
// Use it by merging its Hooks into an Engine (or compare call):
//
//	rec := scanpower.NewRecorder(reg, tw)
//	eng.Hooks = scanpower.MergeHooks(progressHooks, rec.Hooks())
//	... run ...
//	rec.Close()
//	m := rec.Manifest("tableone")
//
// All methods are safe for concurrent use by Engine workers.
type Recorder struct {
	reg   *telemetry.Registry
	tw    *telemetry.TraceWriter
	run   *telemetry.Span
	start time.Time

	// Pre-resolved hot-path handles (single atomic op per event).
	cacheHits, cacheMisses *telemetry.Counter
	podemByOutcome         map[string]*telemetry.Counter
	podemBacktracks        *telemetry.Histogram
	justifyOK, justifyFail *telemetry.Counter
	justifyBacktracks      *telemetry.Histogram
	obsSamples             *telemetry.Counter
	patterns               *telemetry.Counter
	circuitsDone           *telemetry.Counter
	packedLanes            *telemetry.Counter
	mcLanes                *telemetry.Counter
	faultSimLanes          *telemetry.Counter

	mu       sync.Mutex
	circuits map[string]*circuitRecord
	done     []telemetry.CircuitManifest
}

// circuitRecord is the in-flight state of one circuit: its open span, the
// stacked open stage spans (keyed by stage name — pairs always balance,
// but ATPG may run under another circuit's worker via the shared cache),
// and the accumulating manifest entry.
type circuitRecord struct {
	span     *telemetry.Span
	stages   map[string][]*telemetry.Span
	manifest telemetry.CircuitManifest
}

// NewRecorder returns a Recorder feeding reg and tw (either may be nil)
// and opens the root "run" span.
func NewRecorder(reg *telemetry.Registry, tw *telemetry.TraceWriter) *Recorder {
	r := &Recorder{
		reg:   reg,
		tw:    tw,
		start: time.Now(),

		cacheHits:   reg.Counter(MetricCacheHits),
		cacheMisses: reg.Counter(MetricCacheMisses),
		podemByOutcome: map[string]*telemetry.Counter{
			"detected":   reg.Counter(MetricPodemFaults + `{outcome="detected"}`),
			"untestable": reg.Counter(MetricPodemFaults + `{outcome="untestable"}`),
			"aborted":    reg.Counter(MetricPodemFaults + `{outcome="aborted"}`),
			"skipped":    reg.Counter(MetricPodemFaults + `{outcome="skipped"}`),
		},
		podemBacktracks:   reg.Histogram(MetricPodemBacktracks, telemetry.DefCountBuckets),
		justifyOK:         reg.Counter(MetricJustify + `{result="success"}`),
		justifyFail:       reg.Counter(MetricJustify + `{result="fail"}`),
		justifyBacktracks: reg.Histogram(MetricJustifyBacktrack, telemetry.DefCountBuckets),
		obsSamples:        reg.Counter(MetricObsSamples),
		patterns:          reg.Counter(MetricPatterns),
		circuitsDone:      reg.Counter(MetricCircuitsDone),
		packedLanes:       reg.Counter(MetricPackedLanes),
		mcLanes:           reg.Counter(MetricMCLanes),
		faultSimLanes:     reg.Counter(MetricATPGFaultSimLanes),

		circuits: make(map[string]*circuitRecord),
	}
	r.run = tw.Start("run", nil)
	return r
}

// Hooks returns the hooks feeding this Recorder; merge them with any
// other hooks via MergeHooks.
func (r *Recorder) Hooks() Hooks { return r.handle }

// circuit returns (creating on first touch) the in-flight record, opening
// the circuit span lazily under the run span. Callers hold r.mu.
func (r *Recorder) circuit(name string) *circuitRecord {
	cr, ok := r.circuits[name]
	if !ok {
		cr = &circuitRecord{
			span:   r.run.Start(name, map[string]any{"kind": "circuit"}),
			stages: make(map[string][]*telemetry.Span),
		}
		cr.manifest.Name = name
		r.circuits[name] = cr
	}
	return cr
}

// handle is the Recorder's one event handler: it folds each event into
// the registry metrics, the span tree and the manifest record.
func (r *Recorder) handle(ev Event) {
	switch ev.Kind {
	case EventStageStart:
		r.mu.Lock()
		cr := r.circuit(ev.Circuit)
		cr.stages[ev.Stage] = append(cr.stages[ev.Stage], cr.span.Start(ev.Stage, nil))
		r.mu.Unlock()
	case EventStageDone:
		r.stageDone(ev)
	case EventProgress:
		// Circuits run outside an Engine (no progress feed) are flushed
		// by FinishCircuit or Close instead.
		r.FinishCircuit(ev.Circuit)
	case EventSubStage:
		r.reg.Histogram(fmt.Sprintf(MetricSubStageSeconds+`{stage=%q,sub=%q}`, ev.Stage, ev.Name), nil).
			Observe(ev.Elapsed.Seconds())
		if r.tw != nil {
			r.completed(ev, ev.Name, map[string]any{"stage": ev.Stage})
		}
	case EventPodemFault:
		if c, ok := r.podemByOutcome[ev.Name]; ok {
			c.Inc()
		}
		r.podemBacktracks.Observe(float64(ev.Backtracks))
	case EventJustify:
		if ev.Failed {
			r.justifyFail.Inc()
		} else {
			r.justifyOK.Inc()
		}
		r.justifyBacktracks.Observe(float64(ev.Backtracks))
	case EventObsSamples:
		r.obsSamples.Add(int64(ev.Count))
	case EventPattern:
		r.patterns.Inc()
	case EventMeasureBatch:
		r.packedLanes.Add(int64(ev.Lanes))
		if r.tw != nil {
			r.completed(ev, "measure-batch", map[string]any{"stage": ev.Stage, "lanes": ev.Lanes})
		}
	case EventMCBatch:
		r.mcLanes.Add(int64(ev.Lanes))
		if r.tw != nil {
			r.completed(ev, "mc-batch", map[string]any{
				"stage": ev.Stage, "kind": ev.Name, "lanes": ev.Lanes,
			})
		}
	case EventFaultSimBatch:
		r.faultSimLanes.Add(int64(ev.Lanes))
		if r.tw != nil {
			r.completed(ev, "faultsim-batch", map[string]any{
				"stage": ev.Stage, "kind": ev.Name, "lanes": ev.Lanes,
			})
		}
	}
}

// completed emits one completed span named name, lasting ev.Elapsed,
// under the open span of ev's stage (the circuit span when none is
// open).
func (r *Recorder) completed(ev Event, name string, attrs map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(ev.Circuit)
	parent := cr.span
	if st := cr.stages[ev.Stage]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed(name, ev.Elapsed, attrs)
}

// stageDone records a finished stage: its latency histogram, the ATPG
// cache counters, the close of its span and its manifest entry.
func (r *Recorder) stageDone(ev Event) {
	r.reg.Histogram(fmt.Sprintf(MetricStageSeconds+`{stage=%q}`, ev.Stage), nil).
		Observe(ev.Elapsed.Seconds())
	if ev.Stage == StageATPG {
		if ev.CacheHit {
			r.cacheHits.Inc()
		} else {
			r.cacheMisses.Inc()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(ev.Circuit)
	if st := cr.stages[ev.Stage]; len(st) > 0 {
		s := st[len(st)-1]
		cr.stages[ev.Stage] = st[:len(st)-1]
		s.End(stageAttrs(ev))
	}
	cr.manifest.Stages = append(cr.manifest.Stages, telemetry.StageManifest{
		Stage:      ev.Stage,
		WallNS:     ev.Elapsed.Nanoseconds(),
		Patterns:   ev.Patterns,
		Backtracks: ev.Backtracks,
		CacheHit:   ev.CacheHit,
	})
}

func stageAttrs(ev Event) map[string]any {
	attrs := map[string]any{"patterns": ev.Patterns}
	if ev.Backtracks > 0 {
		attrs["backtracks"] = ev.Backtracks
	}
	if ev.CacheHit {
		attrs["cache_hit"] = true
	}
	if ev.Failed {
		attrs["failed"] = true
	}
	return attrs
}

// FinishCircuit closes the named circuit's open span and moves its stage
// record to the finished manifest list. Engine runs do this through the
// progress feed; long-running callers that invoke Engine.Compare directly
// per job — the scanpowerd service — call it after each job so the span
// tree stays balanced without waiting for Close. Unknown names are a
// no-op for the span but still count a completed circuit.
func (r *Recorder) FinishCircuit(circuit string) {
	r.circuitsDone.Inc()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finishLocked(circuit)
}

func (r *Recorder) finishLocked(circuit string) {
	cr, ok := r.circuits[circuit]
	if !ok {
		return
	}
	delete(r.circuits, circuit)
	for _, st := range cr.stages { // unbalanced stage spans (cancelled run)
		for _, s := range st {
			s.End(map[string]any{"aborted": true})
		}
	}
	cr.span.End(map[string]any{"stages": len(cr.manifest.Stages)})
	r.done = append(r.done, cr.manifest)
}

// CircuitError records a per-circuit failure in the manifest. Call it for
// Engine Results carrying an error (the hook feed has no error channel).
func (r *Recorder) CircuitError(circuit string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cr, ok := r.circuits[circuit]; ok {
		cr.manifest.Err = err.Error()
		return
	}
	for i := range r.done {
		if r.done[i].Name == circuit {
			r.done[i].Err = err.Error()
			return
		}
	}
	r.done = append(r.done, telemetry.CircuitManifest{Name: circuit, Err: err.Error()})
}

// Close flushes any circuits still open (runs without a progress feed, or
// cancelled mid-circuit) and ends the run span. Idempotent.
func (r *Recorder) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.circuits {
		r.finishLocked(name)
	}
	if r.run != nil {
		r.run.End(map[string]any{"circuits": len(r.done)})
		r.run = nil
	}
}

// Manifest assembles the run manifest from everything recorded so far:
// environment stamp, per-circuit stage timings in completion order, and
// the registry snapshot. Call after Close (open circuits are not
// included). Config and Results are left for the caller to attach.
func (r *Recorder) Manifest(label string) *telemetry.Manifest {
	m := telemetry.NewManifest(label)
	m.WallNS = time.Since(r.start).Nanoseconds()
	m.Counters = r.reg.Snapshot()
	r.mu.Lock()
	m.Circuits = append([]telemetry.CircuitManifest(nil), r.done...)
	r.mu.Unlock()
	return m
}
