package scan

import (
	"fmt"

	"repro/internal/netlist"
)

// Runner abstracts single- and multi-chain scan test application; both
// Chain and Chains implement it, and the power measurement accepts either.
type Runner interface {
	Circuit() *netlist.Circuit
	Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error
	RunPacked(patterns []Pattern, cfg ShiftConfig, h PackedHooks) error
}

var (
	_ Runner = (*Chain)(nil)
	_ Runner = (*Chains)(nil)
)

// Chains is a multi-chain scan configuration: the flops are partitioned
// into n chains that shift simultaneously, cutting test time by roughly
// n× at the cost of n scan-in/scan-out pins. Shorter chains pad with
// leading zero bits so every chain finishes loading on the same cycle.
type Chains struct {
	c *netlist.Circuit
	// Groups[k][p] is the flop index at position p of chain k (position 0
	// nearest that chain's scan input).
	Groups [][]int
}

// NewChains partitions the flops round-robin into n balanced chains.
func NewChains(c *netlist.Circuit, n int) (*Chains, error) {
	if n < 1 {
		return nil, fmt.Errorf("scan: need at least one chain, got %d", n)
	}
	if n > c.NumFFs() && c.NumFFs() > 0 {
		n = c.NumFFs()
	}
	groups := make([][]int, n)
	for f := 0; f < c.NumFFs(); f++ {
		k := f % n
		groups[k] = append(groups[k], f)
	}
	return NewChainsWithGroups(c, groups)
}

// NewChainsWithGroups builds chains from an explicit partition; every
// flop must appear exactly once across the groups.
func NewChainsWithGroups(c *netlist.Circuit, groups [][]int) (*Chains, error) {
	seen := make([]bool, c.NumFFs())
	for _, g := range groups {
		for _, f := range g {
			if f < 0 || f >= c.NumFFs() || seen[f] {
				return nil, fmt.Errorf("scan: groups are not a partition (flop %d)", f)
			}
			seen[f] = true
		}
	}
	for f, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("scan: flop %d missing from every chain", f)
		}
	}
	return &Chains{c: c, Groups: groups}, nil
}

// Circuit returns the underlying circuit.
func (cs *Chains) Circuit() *netlist.Circuit { return cs.c }

// NumChains returns the chain count.
func (cs *Chains) NumChains() int { return len(cs.Groups) }

// MaxLength returns the longest chain length — the shift cycles needed
// per pattern.
func (cs *Chains) MaxLength() int {
	m := 0
	for _, g := range cs.Groups {
		if len(g) > m {
			m = len(g)
		}
	}
	return m
}

// Run applies the patterns through all chains simultaneously; semantics
// match Chain.Run (shift in while the previous response shifts out, one
// capture per pattern, final zero-fill flush), with MaxLength() shift
// cycles per pattern.
func (cs *Chains) Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error {
	return run(cs.c, cs.Groups, patterns, cfg, hooks)
}
