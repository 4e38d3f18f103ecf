package scanpower

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/power"
)

// Stage names reported in Event.Stage.
const (
	// StageATPG is pattern generation (PODEM + fault simulation) — the
	// dominant cost and the stage the Engine memoizes.
	StageATPG = "atpg"
	// StageTraditional, StageInputControl and StageProposed are the three
	// structure build+measure stages of one Table I row.
	StageTraditional  = "traditional"
	StageInputControl = "input-control"
	StageProposed     = "proposed"
)

// EventKind says what an Event reports, and so which of its counters
// are set.
type EventKind uint8

const (
	// EventStageStart opens Stage on Circuit. Cache-served ATPG stages
	// emit it too, immediately followed by their EventStageDone, so
	// start/done pairs always balance.
	EventStageStart EventKind = iota + 1
	// EventStageDone closes Stage after Elapsed, with Patterns (the
	// test-set size after the stage), Backtracks (fresh ATPG only),
	// CacheHit (ATPG served from the pattern cache, ~zero Elapsed) and
	// Failed (the stage ended with an error, cancellation included).
	EventStageDone
	// EventProgress reports a circuit of an Engine run finished,
	// successfully or not: Count circuits of Total are done.
	EventProgress
	// EventSubStage is a completed sub-stage Name of Stage: ATPG's
	// "random"/"podem"/"compact" (with Patterns after the phase) or a
	// structure build's "observability"/"blocking"/"fill"/"reorder".
	EventSubStage
	// EventPodemFault is one deterministic-phase PODEM fault: Name is the
	// outcome ("detected", "untestable", "aborted" or "skipped"),
	// Backtracks its search effort. Never emitted for cache-served
	// stages.
	EventPodemFault
	// EventJustify is one justification attempt of a structure build's
	// blocking search: Failed when no blocking assignment was committed,
	// Backtracks the branch-and-bound effort.
	EventJustify
	// EventObsSamples reports Count more Monte-Carlo observability
	// vectors simulated.
	EventObsSamples
	// EventPattern reports pattern Index (zero-based) measured.
	EventPattern
	// EventMeasureBatch is one batch of the measurement kernel: Lanes
	// scan cycles in Elapsed.
	EventMeasureBatch
	// EventMCBatch is one Monte-Carlo batch of a structure build: Name is
	// "obs" (observability vectors) or "fill" (fill trials), Lanes the
	// vectors or trials it carried.
	EventMCBatch
	// EventFaultSimBatch is one packed fault-dropping pass of the ATPG
	// stage: Name is "drop" (deterministic-phase buffer flush) or
	// "compact" (static compaction), Lanes the pattern lanes simulated.
	EventFaultSimBatch
)

// Event is one observation of a run, shaped like a trace span: which
// circuit and stage it belongs to, a name, a duration and a few counters.
// Kind says which fields are set (see EventKind); the rest are zero. An
// Event holds no maps or interfaces, so emitting one allocates nothing.
type Event struct {
	Kind    EventKind
	Circuit string
	// Stage is StageATPG, StageTraditional, StageInputControl or
	// StageProposed ("" for EventProgress).
	Stage string
	// Name is the sub-stage, batch kind or PODEM outcome.
	Name    string
	Elapsed time.Duration

	Patterns   int
	Backtracks int
	Lanes      int
	Count      int
	Index      int
	Total      int
	CacheHit   bool
	Failed     bool
}

// Hooks observes an Engine (or a context-first package function) as it
// works: every stage boundary, sub-stage, kernel batch, PODEM fault and
// justification arrives as one Event. A nil Hooks observes nothing and
// costs nothing. Hooks must be safe for concurrent use when the Engine
// runs more than one worker, and cheap: the fine-grained kinds fire per
// fault and per pattern.
type Hooks func(Event)

func (h Hooks) emit(ev Event) {
	if h != nil {
		h(ev)
	}
}

// MergeHooks returns hooks that deliver every event to each non-nil
// argument in argument order. Use it to combine a progress printer with a
// telemetry Recorder.
func MergeHooks(hs ...Hooks) Hooks {
	var live []Hooks
	for _, h := range hs {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev Event) {
		for _, h := range live {
			h(ev)
		}
	}
}

// atpgObserver adapts h to an atpg.Observer bound to one circuit. A nil h
// yields the zero Observer, which adds no work to generation.
func (h Hooks) atpgObserver(circuit string) atpg.Observer {
	if h == nil {
		return atpg.Observer{}
	}
	return atpg.Observer{
		OnPodemFault: func(_ atpg.Fault, outcome atpg.PodemOutcome, backtracks int) {
			h(Event{Kind: EventPodemFault, Circuit: circuit, Stage: StageATPG,
				Name: outcome.String(), Backtracks: backtracks})
		},
		OnPhase: func(phase string, elapsed time.Duration, patterns int) {
			h(Event{Kind: EventSubStage, Circuit: circuit, Stage: StageATPG,
				Name: phase, Elapsed: elapsed, Patterns: patterns})
		},
		OnFaultSimBatch: func(kind string, lanes int, elapsed time.Duration) {
			h(Event{Kind: EventFaultSimBatch, Circuit: circuit, Stage: StageATPG,
				Name: kind, Elapsed: elapsed, Lanes: lanes})
		},
	}
}

// coreObserver adapts h to a core.Observer bound to one circuit's
// structure-build stage.
func (h Hooks) coreObserver(circuit, stage string) core.Observer {
	if h == nil {
		return core.Observer{}
	}
	return core.Observer{
		OnJustify: func(_ netlist.NetID, success bool, backtracks int) {
			h(Event{Kind: EventJustify, Circuit: circuit, Stage: stage,
				Backtracks: backtracks, Failed: !success})
		},
		OnObsSamples: func(n int) {
			h(Event{Kind: EventObsSamples, Circuit: circuit, Stage: stage, Count: n})
		},
		OnPhase: func(phase string, elapsed time.Duration) {
			h(Event{Kind: EventSubStage, Circuit: circuit, Stage: stage,
				Name: phase, Elapsed: elapsed})
		},
		OnMCBatch: func(kind string, lanes int, elapsed time.Duration) {
			h(Event{Kind: EventMCBatch, Circuit: circuit, Stage: stage,
				Name: kind, Elapsed: elapsed, Lanes: lanes})
		},
	}
}

// measureOptions adapts h to the measurement options of one circuit's
// measurement stage.
func (h Hooks) measureOptions(ctx context.Context, circuit, stage string) power.MeasureOptions {
	m := power.MeasureOptions{Ctx: ctx}
	if h != nil {
		m.OnPattern = func(index int) {
			h(Event{Kind: EventPattern, Circuit: circuit, Stage: stage, Index: index})
		}
		m.OnBatch = func(lanes int, elapsed time.Duration) {
			h(Event{Kind: EventMeasureBatch, Circuit: circuit, Stage: stage,
				Elapsed: elapsed, Lanes: lanes})
		}
	}
	return m
}

// generate runs ATPG on c as one paired ATPG stage.
func (h Hooks) generate(ctx context.Context, c *netlist.Circuit, opts atpg.Options) (*atpg.Result, error) {
	h.emit(Event{Kind: EventStageStart, Circuit: c.Name, Stage: StageATPG})
	start := time.Now()
	res, err := atpg.GenerateObserved(ctx, c, opts, h.atpgObserver(c.Name))
	done := Event{Kind: EventStageDone, Circuit: c.Name, Stage: StageATPG,
		Elapsed: time.Since(start), Failed: err != nil}
	if err != nil {
		h.emit(done)
		return nil, err
	}
	done.Patterns, done.Backtracks = len(res.Patterns), res.Backtracks
	h.emit(done)
	return res, nil
}

// patternSource supplies the ATPG result for a circuit: the Engine plugs
// in its memoized layer, plain package functions the direct generator.
type patternSource func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error)

// directPatterns generates without caching, reporting through hooks.
func directPatterns(cfg Config, hooks Hooks) patternSource {
	return func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
		return hooks.generate(ctx, c, scaledATPG(c, cfg))
	}
}

// patternKey identifies one memoized ATPG run: the frozen circuit's
// structural fingerprint plus the exact generation options (which the
// large-circuit scaling may vary per circuit). Options.Lanes is
// normalized out of the key — it changes wall time only, never a result
// bit, so runs that differ only in packed batch width share one entry.
type patternKey struct {
	fp   uint64
	opts atpg.Options
}

func newPatternKey(fp uint64, opts atpg.Options) patternKey {
	opts.Lanes = 0
	return patternKey{fp: fp, opts: opts}
}

// patternEntry is one cache slot. done is closed when res/err are final.
type patternEntry struct {
	done chan struct{}
	res  *atpg.Result
	err  error
}

// patternCache memoizes ATPG results with in-flight coalescing: when two
// workers need the same circuit's patterns, one generates and the other
// waits. Failed runs (including cancellations) are evicted so a later
// caller with a healthy context retries instead of inheriting the error.
type patternCache struct {
	mu sync.Mutex
	m  map[patternKey]*patternEntry
}

// get returns the cached result for key, generating it via gen on a miss.
// hit reports whether this caller avoided generation work (a prior result
// or another in-flight caller's).
func (pc *patternCache) get(ctx context.Context, key patternKey,
	gen func() (*atpg.Result, error)) (res *atpg.Result, hit bool, err error) {

	for {
		pc.mu.Lock()
		if pc.m == nil {
			pc.m = make(map[patternKey]*patternEntry)
		}
		e, ok := pc.m[key]
		if !ok {
			e = &patternEntry{done: make(chan struct{})}
			pc.m[key] = e
			pc.mu.Unlock()
			e.res, e.err = gen()
			if e.err != nil {
				pc.mu.Lock()
				delete(pc.m, key)
				pc.mu.Unlock()
			}
			close(e.done)
			return e.res, false, e.err
		}
		pc.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				// The generating caller failed; retry under our context.
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				continue
			}
			return e.res, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Engine runs Table I-style experiments across a bounded worker pool with
// a shared, memoized ATPG layer: every experiment on the same frozen
// circuit (Compare, CompareEnhanced, StudyReordering, repeated runs)
// generates patterns exactly once. The zero value is not usable; use
// NewEngine. An Engine is safe for concurrent use.
type Engine struct {
	// Cfg is the experiment configuration, fixed at construction.
	Cfg Config
	// Workers bounds the worker pool of Run; values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Hooks observes the run's events. Set before calling Run.
	Hooks Hooks

	cache  patternCache
	hits   atomic.Int64
	misses atomic.Int64
}

// NewEngine returns an Engine over cfg with GOMAXPROCS workers.
func NewEngine(cfg Config) *Engine {
	return &Engine{Cfg: cfg}
}

// CacheStats reports how many pattern lookups were served from the cache
// (hits — including waits on an in-flight generation) versus generated
// (misses).
func (e *Engine) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// patterns is the Engine's memoized pattern source under its own Cfg.
func (e *Engine) patterns(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
	return e.patternsFor(e.Cfg)(ctx, c)
}

// patternsFor returns a memoized pattern source under an arbitrary
// configuration. The cache key includes the (circuit-scaled) ATPG options,
// so sources built from different configurations share entries exactly
// when their generation work would be identical — the per-job override
// path of the scanpowerd service rides on this.
func (e *Engine) patternsFor(cfg Config) patternSource {
	return func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
		opts := scaledATPG(c, cfg)
		key := newPatternKey(c.Fingerprint(), opts)
		gen := func() (*atpg.Result, error) { return e.Hooks.generate(ctx, c, opts) }
		res, hit, err := e.cache.get(ctx, key, gen)
		if err != nil {
			return nil, err
		}
		if hit {
			e.hits.Add(1)
			// Cache-served stages still emit a paired start/done (with
			// CacheHit set) so span accounting never sees an unbalanced
			// close.
			e.Hooks.emit(Event{Kind: EventStageStart, Circuit: c.Name, Stage: StageATPG})
			e.Hooks.emit(Event{Kind: EventStageDone, Circuit: c.Name, Stage: StageATPG,
				Patterns: len(res.Patterns), CacheHit: true})
		} else {
			e.misses.Add(1)
		}
		return res, nil
	}
}

// Compare runs the Table I experiment on c through the Engine's pattern
// cache; repeated calls (or CompareEnhanced/StudyReordering on the same
// circuit) reuse the generated patterns.
func (e *Engine) Compare(ctx context.Context, c *netlist.Circuit) (*Comparison, error) {
	return compareWith(ctx, c, e.Cfg, e.patterns, e.Hooks)
}

// CompareWith is Compare under a per-call configuration override while
// still sharing the Engine's memoized ATPG layer: calls whose (scaled)
// ATPG options match — e.g. the same circuit requested with different
// activity profiles — generate patterns once. The scanpowerd service
// uses this to apply per-job Config overrides on one shared cache.
func (e *Engine) CompareWith(ctx context.Context, c *netlist.Circuit, cfg Config) (*Comparison, error) {
	return compareWith(ctx, c, cfg, e.patternsFor(cfg), e.Hooks)
}

// CompareEnhanced runs the enhanced-scan extension through the cache.
func (e *Engine) CompareEnhanced(ctx context.Context, c *netlist.Circuit) (*EnhancedComparison, error) {
	return compareEnhancedWith(ctx, c, e.Cfg, e.patterns)
}

// StudyReordering runs the reordering extension through the cache.
func (e *Engine) StudyReordering(ctx context.Context, c *netlist.Circuit, structure string) (*ReorderingStudy, error) {
	return studyReorderingWith(ctx, c, e.Cfg, structure, e.patterns)
}

// Result is one streamed outcome of Engine.Run: the comparison for
// names[Index], or the error that stopped it.
type Result struct {
	// Index is the circuit's position in the Run names slice.
	Index int
	// Name is names[Index].
	Name string
	// Comparison is the Table I row; nil when Err is set.
	Comparison *Comparison
	// Err is the per-circuit failure, ctx.Err() for circuits abandoned
	// by cancellation.
	Err error
}

// Run fans the named benchmarks out across the worker pool and streams
// per-circuit results as they complete, in completion order (Result.Index
// restores input order). The returned channel is buffered for the whole
// run — readers may abandon it at any time — and closes when every worker
// has finished. On cancellation, queued circuits are dropped and in-flight
// ones return promptly with ctx's error.
func (e *Engine) Run(ctx context.Context, names []string) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers < 1 {
		workers = 1
	}
	out := make(chan Result, len(names))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := Result{Index: i, Name: names[i]}
				if err := ctx.Err(); err != nil {
					r.Err = err
				} else if c, err := Benchmark(names[i]); err != nil {
					r.Err = err
				} else {
					r.Comparison, r.Err = e.Compare(ctx, c)
				}
				out <- r
				e.Hooks.emit(Event{Kind: EventProgress, Circuit: r.Name,
					Count: int(done.Add(1)), Total: len(names)})
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range names {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// RunAll is the blocking form of Run: it returns the comparisons in input
// order, or the first error (decorated with its circuit name). On
// cancellation it returns ctx's error.
func (e *Engine) RunAll(ctx context.Context, names []string) ([]*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ch, err := e.Run(ctx, names)
	if err != nil {
		return nil, err
	}
	out := make([]*Comparison, len(names))
	var firstErr error
	got := 0
	for r := range ch {
		got++
		if r.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.Name, r.Err)
			}
			continue
		}
		out[r.Index] = r.Comparison
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if got < len(names) {
		return nil, ctx.Err()
	}
	return out, nil
}

// WriteTable renders the Table I rows for names to w in input order,
// streaming each row as soon as every earlier row is available. With
// Workers > 1 the output is byte-identical to the sequential WriteTable —
// the experiments are independent and individually deterministic.
func (e *Engine) WriteTable(ctx context.Context, w io.Writer, names []string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := fmt.Fprintln(w, TableHeader()); err != nil {
		return err
	}
	ch, err := e.Run(ctx, names)
	if err != nil {
		return err
	}
	pending := make(map[int]Result, len(names))
	next := 0
	for r := range ch {
		pending[r.Index] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if rr.Err != nil {
				// The out channel is buffered for the whole run, so the
				// remaining workers finish without a reader.
				return fmt.Errorf("%s: %w", rr.Name, rr.Err)
			}
			if _, err := fmt.Fprintln(w, rr.Comparison.Row()); err != nil {
				return err
			}
			next++
		}
	}
	if next < len(names) {
		return ctx.Err()
	}
	return nil
}
