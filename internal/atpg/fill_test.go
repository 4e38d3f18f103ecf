package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/scan"
)

// fillTestCircuit builds a minimal frozen circuit with two PIs and nFF
// flops, all fed by one gate — enough structure to exercise the fill
// paths with a hand-crafted assignment.
func fillTestCircuit(t *testing.T, nFF int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("fillt")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGate(logic.And, "g", "a", "b")
	for i := 0; i < nFF; i++ {
		c.AddFF(fmt.Sprintf("f%d", i), fmt.Sprintf("q%d", i), "g")
	}
	c.MarkPO("g")
	c.MustFreeze()
	return c
}

// TestExtractPatternAdjacentChainOrder is the unit test for the
// FillAdjacent bugfix: adjacency must follow the actual chain-position
// order of the configured partition, not flop index order, and cells
// before a chain's first specified bit must take that bit's value.
func TestExtractPatternAdjacentChainOrder(t *testing.T) {
	c := fillTestCircuit(t, 6)
	rng := rand.New(rand.NewSource(1))
	// CombInputs order: a, b, f0..f5.
	assign := []logic.Value{
		logic.One, // a: specified
		logic.X,   // b: don't-care, carries a's value
		logic.X,   // f0
		logic.Zero,
		logic.One, // f2
		logic.X,   // f3
		logic.X,   // f4
		logic.One, // f5
	}

	// Two round-robin chains: chain0 = [0 2 4], chain1 = [1 3 5].
	// chain0: first specified is f2=1 -> f0 backfills 1, f4 carries 1.
	// chain1: first specified is f1=0 -> f3 carries 0, f5 flips to 1.
	plan2 := newFillPlan(c, Options{FillChains: 2})
	pat := extractPattern(c, assign, rng, FillAdjacent, plan2)
	wantPI := []bool{true, true}
	wantState := []bool{true, false, true, false, true, true}
	for i, w := range wantPI {
		if pat.PI[i] != w {
			t.Errorf("2 chains: PI[%d] = %v, want %v", i, pat.PI[i], w)
		}
	}
	for f, w := range wantState {
		if pat.State[f] != w {
			t.Errorf("2 chains: State[%d] = %v, want %v", f, pat.State[f], w)
		}
	}

	// Single chain [0..5]: first specified is f1=0, so f0 backfills 0 and
	// the carry runs f2=1 onward — a different pattern, which is exactly
	// what the pre-fix index-order fill got wrong on multi-chain configs.
	plan1 := newFillPlan(c, Options{})
	pat1 := extractPattern(c, assign, rng, FillAdjacent, plan1)
	wantState1 := []bool{false, false, true, true, true, true}
	for f, w := range wantState1 {
		if pat1.State[f] != w {
			t.Errorf("1 chain: State[%d] = %v, want %v", f, pat1.State[f], w)
		}
	}
}

// TestExtractPatternAdjacentUnspecifiedChain: a chain with no specified
// bit fills constant, contributing zero shift transitions.
func TestExtractPatternAdjacentUnspecifiedChain(t *testing.T) {
	c := fillTestCircuit(t, 4)
	rng := rand.New(rand.NewSource(1))
	assign := []logic.Value{
		logic.Zero, logic.X,
		logic.One, logic.X, logic.One, logic.X, // f0,f2 on chain0; chain1 all X
	}
	plan := newFillPlan(c, Options{FillChains: 2})
	pat := extractPattern(c, assign, rng, FillAdjacent, plan)
	// chain1 = [1 3], fully unspecified -> constant false.
	if pat.State[1] || pat.State[3] {
		t.Errorf("unspecified chain not constant: %v", pat.State)
	}
	// chain0 = [0 2]: both specified 1.
	if !pat.State[0] || !pat.State[2] {
		t.Errorf("specified chain wrong: %v", pat.State)
	}
}

// deterministicPatterns generates with the given fill setup and returns
// only the deterministic-phase patterns (the random-phase prefix is
// fill-independent and identical across runs, so it would dilute the
// comparison).
func deterministicPatterns(t *testing.T, c *netlist.Circuit, opts Options) []scan.Pattern {
	t.Helper()
	opts.Compact = false
	randN := 0
	ob := Observer{OnPhase: func(phase string, _ time.Duration, patterns int) {
		if phase == "random" {
			randN = patterns
		}
	}}
	res, err := GenerateObserved(context.Background(), c, opts, ob)
	if err != nil {
		t.Fatal(err)
	}
	return res.Patterns[randN:]
}

// TestFillAdjacentMultiChainReducesWTM is the multi-chain regression for
// the FillAdjacent fix: on a 4-chain s1423 configuration, chain-order
// adjacent fill must produce substantially fewer weighted scan-in
// transitions than random fill, and must also beat index-order adjacent
// fill (the pre-fix behavior) on the same chain layout.
func TestFillAdjacentMultiChainReducesWTM(t *testing.T) {
	c := loadISCAS(t, "s1423")
	const nChains = 4
	cs, err := scan.NewChains(c, nChains)
	if err != nil {
		t.Fatal(err)
	}
	wtmPerPattern := func(pats []scan.Pattern) float64 {
		if len(pats) == 0 {
			t.Fatal("no deterministic patterns")
		}
		total := 0
		for _, g := range cs.Groups {
			total += power.TestSetWTM(pats, g)
		}
		return float64(total) / float64(len(pats))
	}

	opts := DefaultOptions()
	opts.Fill = FillRandom
	randWTM := wtmPerPattern(deterministicPatterns(t, c, opts))

	opts.Fill = FillAdjacent
	opts.FillChains = 1 // pre-fix behavior: one carry in flop-index order
	indexWTM := wtmPerPattern(deterministicPatterns(t, c, opts))

	opts.FillChains = nChains
	chainWTM := wtmPerPattern(deterministicPatterns(t, c, opts))

	if chainWTM >= 0.7*randWTM {
		t.Errorf("chain-order adjacent fill WTM/pattern = %.1f, want < 0.7 * random (%.1f)",
			chainWTM, randWTM)
	}
	if chainWTM >= indexWTM {
		t.Errorf("chain-order adjacent fill WTM/pattern = %.1f, not below index-order fill (%.1f)",
			chainWTM, indexWTM)
	}
}

// TestFillAdjacentKeepsCoverage: the fill change is a power lever, not a
// coverage one — adjacent fill must reach the same coverage class as
// random fill on the same circuit (PODEM specifies the detecting bits;
// fill only completes don't-cares and is serial-verified per target).
func TestFillAdjacentKeepsCoverage(t *testing.T) {
	c := loadISCAS(t, "s382")
	opts := DefaultOptions()
	opts.Fill = FillRandom
	rnd, err := Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fill = FillAdjacent
	opts.FillChains = 3
	adj, err := Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := adj.Coverage() - rnd.Coverage(); d < -0.02 {
		t.Errorf("adjacent fill coverage %.4f well below random fill %.4f",
			adj.Coverage(), rnd.Coverage())
	}
}
