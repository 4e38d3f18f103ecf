package core

import (
	"testing"

	"repro/internal/netlist"
)

// TestFillPackedAllocsFlat guards the buffer reuse of the packed fill:
// each fillPacked call allocates its net-state words, cost buffer and
// evaluator once and reuses them across batches, so the number of
// allocations per call must not grow with the trial count. A regression
// that allocates per batch shows up as the large run allocating far more
// than the small one.
func TestFillPackedAllocsFlat(t *testing.T) {
	c := blockableCircuit()
	f := newTestFinder(t, c, nil)
	f.imply()
	var unassigned []netlist.NetID
	for _, n := range c.CombInputs() {
		if f.controlled[n] {
			unassigned = append(unassigned, n)
		}
	}
	if len(unassigned) == 0 {
		t.Fatal("test circuit has no controlled inputs to fill")
	}
	run := func(trials int) float64 {
		return testing.AllocsPerRun(3, func() {
			f.fillPacked(unassigned, trials)
		})
	}
	small := run(256)
	large := run(4096)
	// 4096 trials are 16 batches at the default width; per-batch
	// allocations would exceed the slack by an order of magnitude.
	if large > small+16 {
		t.Errorf("allocs grew with trials: %v at 256, %v at 4096", small, large)
	}
}
