package leakage

import "repro/internal/netlist"

// CircuitTables precomputes, for every gate of the frozen circuit, a
// pointer to its leakage table indexed by the packed binary input pattern
// (bit i = input i). It removes the per-gate map lookup from hot
// loops such as AccumLeakPackedW.
func (m *Model) CircuitTables(c *netlist.Circuit) [][]float64 {
	tabs := make([][]float64, c.NumGates())
	for gi := range c.Gates {
		g := &c.Gates[gi]
		tabs[gi] = m.table(g.Type, len(g.Inputs))
	}
	return tabs
}
