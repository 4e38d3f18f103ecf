package atpg

import "time"

// PodemOutcome classifies one deterministic PODEM attempt for observers.
type PodemOutcome int

// Per-fault PODEM outcomes.
const (
	// PodemDetected: the run produced a pattern for the target fault.
	PodemDetected PodemOutcome = iota
	// PodemUntestableFault: the search space was exhausted — redundant.
	PodemUntestableFault
	// PodemAbortedFault: the backtrack limit stopped the run.
	PodemAbortedFault
	// PodemSkipped: the MaxPodemFaults cap left the fault unattempted.
	PodemSkipped
)

// String names the outcome (stable labels for metric series).
func (o PodemOutcome) String() string {
	switch o {
	case PodemDetected:
		return "detected"
	case PodemUntestableFault:
		return "untestable"
	case PodemAbortedFault:
		return "aborted"
	case PodemSkipped:
		return "skipped"
	}
	return "unknown"
}

// Observer receives fine-grained generation telemetry. Every field is
// optional; the zero Observer is free — each emission site is a single
// nil check, and no observer-related value escapes to the heap when a
// field is nil, so generation with a zero Observer allocates exactly what
// Generate does.
//
// Observer is deliberately not part of Options: Options is comparable (it
// keys the Engine's memoized pattern cache) and function fields would
// break that.
type Observer struct {
	// OnPodemFault fires after each deterministic-phase fault: the target,
	// how its PODEM run ended, and how many backtracks it cost.
	OnPodemFault func(f Fault, outcome PodemOutcome, backtracks int)
	// OnRandomBatch fires after each 64-lane random-simulation batch with
	// the batch size and how many faults it newly detected.
	OnRandomBatch func(patterns, newDetects int)
	// OnPhase fires when a generation phase completes: "random", "podem",
	// or "compact", with its wall time and the pattern count after it.
	OnPhase func(phase string, elapsed time.Duration, patterns int)
	// OnFaultSimBatch fires after each packed fault-dropping pass: kind is
	// "drop" (deterministic-phase pattern buffer flush) or "compact"
	// (static compaction), lanes is how many pattern lanes the pass
	// simulated, in deterministic order for a given seed and options.
	OnFaultSimBatch func(kind string, lanes int, elapsed time.Duration)
}

// phaseTimer returns a stopper for the named phase, or a no-op when
// OnPhase is unset. The no-op literal captures nothing, so the unobserved
// path allocates nothing.
func (o Observer) phaseTimer(phase string) func(patterns int) {
	if o.OnPhase == nil {
		return func(int) {}
	}
	start := time.Now()
	return func(patterns int) {
		o.OnPhase(phase, time.Since(start), patterns)
	}
}
