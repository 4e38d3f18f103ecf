// Package leakage models the static (leakage) power of the NAND/NOR/INV
// 45 nm library used in the paper's evaluation.
//
// The paper characterized every library cell with HSPICE BSIM4 at 45 nm /
// 0.9 V and stored the result in per-gate lookup tables ("the results are
// stored in several tables containing the leakage of each gate for a given
// input pattern"). We substitute an analytic transistor-network model with
// the same structure BSIM4 exposes at the gate level:
//
//   - subthreshold conduction through OFF devices, with the series stack
//     effect (each extra OFF device in a stack divides the current by a
//     calibrated stack factor) and a position dependence for a single OFF
//     device (an OFF transistor next to the power rail sees a boosted
//     drain-source drop from the charged internal node; one next to the
//     output is strongly suppressed);
//   - gate-oxide direct tunneling through ON devices whose channel sits at
//     the opposite rail from their gate (full oxide drop), electrons
//     tunneling more readily than holes (IgN > IgP).
//
// The four free parameter groups are calibrated so the NAND2 table
// reproduces the paper's Figure 2 exactly in ordering and closely in
// magnitude (00→78 nA, 01→73 nA, 10→264 nA, 11→408 nA); every other cell
// and input state follows from the same physics.
//
// Input-position convention: for the series transistor stack of a cell
// (the NMOS pull-down of a NAND, the PMOS pull-up of a NOR), input index 0
// drives the transistor nearest the output node and the last index drives
// the transistor nearest the power rail. The strong position dependence of
// single-OFF-device leakage is exactly what the paper's gate input
// reordering step exploits.
package leakage

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Params are the electrical calibration constants, currents in nA.
type Params struct {
	IsubN float64 // subthreshold of one OFF NMOS at full VDS
	IsubP float64 // subthreshold of one OFF PMOS at full |VDS|
	IgN   float64 // gate tunneling of one ON NMOS with full oxide drop
	IgP   float64 // gate tunneling of one ON PMOS with full oxide drop
	// Stack is the per-extra-OFF-device suppression in a series stack.
	Stack float64
	// OffNearOutput scales a single OFF device adjacent to the output.
	OffNearOutput float64
	// OffNearRail scales a single OFF device adjacent to the power rail
	// (internal-node boost makes it leak slightly more than nominal).
	OffNearRail float64
	// VDD is the supply voltage in volts (power = VDD·ΣI).
	VDD float64
}

// DefaultParams returns the 45 nm / 0.9 V calibration that reproduces the
// paper's Figure 2 NAND2 table.
func DefaultParams() Params {
	return Params{
		IsubN:         200,
		IsubP:         174,
		IgN:           30,
		IgP:           20,
		Stack:         5.26,
		OffNearOutput: 0.115,
		OffNearRail:   1.22,
		VDD:           0.9,
	}
}

// Model evaluates per-gate and whole-circuit leakage. It caches the
// per-cell tables; create once and share (read-only after creation, safe
// for concurrent use).
type Model struct {
	p Params
	// tables[key][pattern] = nA, key = type/arity, pattern bit i = input i.
	tables map[tableKey][]float64
}

type tableKey struct {
	t     logic.GateType
	arity int
}

// New builds a model (and its cell tables up to fanin 4) from params.
func New(p Params) *Model {
	m := &Model{p: p, tables: make(map[tableKey][]float64)}
	for _, t := range []logic.GateType{logic.Not, logic.Buf} {
		m.buildTable(t, 1)
	}
	for _, t := range []logic.GateType{logic.Nand, logic.Nor, logic.And, logic.Or, logic.Xor, logic.Xnor} {
		for a := 2; a <= 4; a++ {
			m.buildTable(t, a)
		}
	}
	m.buildTable(logic.Mux2, 3)
	return m
}

// Default returns New(DefaultParams()).
func Default() *Model { return New(DefaultParams()) }

// Params returns the calibration constants of the model.
func (m *Model) Params() Params { return m.p }

func (m *Model) buildTable(t logic.GateType, arity int) {
	tab := make([]float64, 1<<arity)
	in := make([]bool, arity)
	for bits := range tab {
		for i := range in {
			in[i] = bits>>i&1 == 1
		}
		tab[bits] = m.raw(t, in)
	}
	m.tables[tableKey{t, arity}] = tab
}

// table returns the cell table of type t at the given arity, building it
// on first use.
func (m *Model) table(t logic.GateType, arity int) []float64 {
	tab, ok := m.tables[tableKey{t, arity}]
	if !ok {
		m.buildTable(t, arity)
		tab = m.tables[tableKey{t, arity}]
	}
	return tab
}

// raw computes the leakage of one cell instance for a binary input
// pattern, in nA.
func (m *Model) raw(t logic.GateType, in []bool) float64 {
	switch t {
	case logic.Not:
		return m.invLeak(in[0])
	case logic.Buf:
		// No BUF library cell exists; model as two inverters.
		return m.invLeak(in[0]) + m.invLeak(!in[0])
	case logic.Nand:
		return m.seriesParallel(in, true)
	case logic.Nor:
		return m.seriesParallel(in, false)
	case logic.And:
		// Composite pre-mapping cell: NAND + INV.
		n := !allTrue(in)
		return m.seriesParallel(in, true) + m.invLeak(n)
	case logic.Or:
		n := !anyTrue(in)
		return m.seriesParallel(in, false) + m.invLeak(n)
	case logic.Xor, logic.Xnor:
		return m.xorLeak(in, t == logic.Xnor)
	case logic.Mux2:
		return m.muxLeak(in[0], in[1], in[2])
	}
	panic(fmt.Sprintf("leakage: no cell model for %v", t))
}

func allTrue(in []bool) bool {
	for _, v := range in {
		if !v {
			return false
		}
	}
	return true
}

func anyTrue(in []bool) bool {
	for _, v := range in {
		if v {
			return true
		}
	}
	return false
}

// invLeak is the inverter: single NMOS / single PMOS.
func (m *Model) invLeak(a bool) float64 {
	if a {
		// Output 0: PMOS off at full VDS, NMOS on with channel at ground.
		return m.p.IsubP + m.p.IgN
	}
	// Output 1: NMOS off at full VDS, PMOS on with channel at VDD.
	return m.p.IsubN + m.p.IgP
}

// seriesParallel evaluates a NAND (nmosSeries=true) or NOR
// (nmosSeries=false) of arbitrary arity.
//
// For a NAND: series NMOS pull-down (input i=0 nearest output), parallel
// PMOS pull-up. A device conducts when its input is 1 (NMOS) / 0 (PMOS).
// For a NOR the roles are dual.
func (m *Model) seriesParallel(in []bool, nmosSeries bool) float64 {
	n := len(in)
	// In the series stack, device i is OFF when the input fails to turn it
	// on. For NAND/NMOS: off when in[i]==false. For NOR/PMOS: off when
	// in[i]==true.
	offInStack := func(v bool) bool {
		if nmosSeries {
			return !v
		}
		return v
	}
	offCount := 0
	firstOff, lastOff := -1, -1
	for i, v := range in {
		if offInStack(v) {
			offCount++
			if firstOff < 0 {
				firstOff = i
			}
			lastOff = i
		}
	}
	var IsubStack, IsubPar, IgSeries, IgPar float64
	if nmosSeries {
		IsubStack, IsubPar = m.p.IsubN, m.p.IsubP
		IgSeries, IgPar = m.p.IgN, m.p.IgP
	} else {
		IsubStack, IsubPar = m.p.IsubP, m.p.IsubN
		IgSeries, IgPar = m.p.IgP, m.p.IgN
	}

	total := 0.0
	if offCount == 0 {
		// Stack conducts: output at the stack's rail. Every parallel
		// device is OFF at full VDS; every stack device is ON with its
		// channel at the rail (full oxide drop).
		total += float64(n) * IsubPar
		total += float64(n) * IgSeries
		return total
	}
	// Stack blocked: output at the opposite rail, parallel network has at
	// least one ON device, so parallel OFF devices see ~0 VDS (no
	// subthreshold). Parallel ON devices hold their channel at the output
	// rail with full oxide drop. A parallel device is ON exactly when its
	// series twin is OFF, so onPar == offCount.
	onPar := offCount
	total += float64(onPar) * IgPar
	// Series subthreshold through the blocked stack.
	switch {
	case offCount >= 2:
		sub := IsubStack
		for k := 1; k < offCount; k++ {
			sub /= m.p.Stack
		}
		total += sub
	default: // exactly one OFF device: position-dependent.
		total += IsubStack * m.positionFactor(firstOff, n)
	}
	// Gate tunneling of ON stack devices between the OFF device(s) and the
	// rail: their channel is pinned at the rail through the conducting
	// lower part of the stack.
	onBelow := n - 1 - lastOff
	total += float64(onBelow) * IgSeries
	return total
}

// positionFactor interpolates the single-OFF-device subthreshold factor
// from OffNearOutput (index 0) to OffNearRail (index n-1).
func (m *Model) positionFactor(idx, n int) float64 {
	if n <= 1 {
		return 1
	}
	frac := float64(idx) / float64(n-1)
	return m.p.OffNearOutput + (m.p.OffNearRail-m.p.OffNearOutput)*frac
}

// xorLeak models the pre-mapping XOR/XNOR composite as the four-NAND2
// network (plus an inverter for XNOR), matching what techmap emits.
func (m *Model) xorLeak(in []bool, invert bool) float64 {
	acc := in[0]
	total := 0.0
	for i := 1; i < len(in); i++ {
		b := in[i]
		n1 := !(acc && b)
		n2 := !(acc && n1)
		n3 := !(b && n1)
		total += m.raw(logic.Nand, []bool{acc, b})
		total += m.raw(logic.Nand, []bool{acc, n1})
		total += m.raw(logic.Nand, []bool{b, n1})
		total += m.raw(logic.Nand, []bool{n2, n3})
		acc = acc != b
	}
	if invert {
		total += m.invLeak(acc)
	}
	return total
}

// muxLeak models the MUX2 DFT cell as its NAND-level network:
// selb = NOT(sel); n1 = NAND(d0, selb); n2 = NAND(d1, sel);
// out = NAND(n1, n2).
func (m *Model) muxLeak(d0, d1, sel bool) float64 {
	selb := !sel
	n1 := !(d0 && selb)
	n2 := !(d1 && sel)
	return m.invLeak(sel) +
		m.raw(logic.Nand, []bool{d0, selb}) +
		m.raw(logic.Nand, []bool{d1, sel}) +
		m.raw(logic.Nand, []bool{n1, n2})
}

// GateLeak returns the expected leakage of one gate in nA for a
// three-valued input pattern: X inputs are averaged over both binary
// values (independently, probability 1/2 each) — the steady "unknown,
// toggling" state a non-blocked line has during scan shifting.
func (m *Model) GateLeak(t logic.GateType, in []logic.Value) float64 {
	tab := m.table(t, len(in))
	// Enumerate refinements of X positions.
	sum := 0.0
	count := 0
	nX := 0
	base := 0
	var xPos []int
	for i, v := range in {
		switch v {
		case logic.One:
			base |= 1 << i
		case logic.X:
			nX++
			xPos = append(xPos, i)
		}
	}
	for mask := 0; mask < 1<<nX; mask++ {
		bits := base
		for j, p := range xPos {
			if mask>>j&1 == 1 {
				bits |= 1 << p
			}
		}
		sum += tab[bits]
		count++
	}
	return sum / float64(count)
}

// GateLeakBits returns the leakage of one gate for a binary input pattern
// encoded as bits (bit i = input i), in nA.
func (m *Model) GateLeakBits(t logic.GateType, arity, bits int) float64 {
	return m.table(t, arity)[bits]
}

// CircuitLeak sums the expected leakage of every gate of the frozen
// circuit under the given per-net three-valued state, in nA.
func (m *Model) CircuitLeak(c *netlist.Circuit, state []logic.Value) float64 {
	total := 0.0
	buf := make([]logic.Value, 0, 8)
	for gi := range c.Gates {
		g := &c.Gates[gi]
		buf = buf[:0]
		for _, in := range g.Inputs {
			buf = append(buf, state[in])
		}
		total += m.GateLeak(g.Type, buf)
	}
	return total
}

// CircuitLeakBool is CircuitLeak for a fully binary per-net state.
func (m *Model) CircuitLeakBool(c *netlist.Circuit, state []bool) float64 {
	total := 0.0
	for gi := range c.Gates {
		g := &c.Gates[gi]
		bits := 0
		for i, in := range g.Inputs {
			if state[in] {
				bits |= 1 << i
			}
		}
		total += m.GateLeakBits(g.Type, len(g.Inputs), bits)
	}
	return total
}

// PowerUW converts a total leakage current in nA to power in µW at the
// model's supply voltage.
func (m *Model) PowerUW(totalNA float64) float64 {
	return totalNA * m.p.VDD * 1e-3
}

// Figure2 returns the NAND2 table in the paper's Figure 2 layout:
// entries for input states 00, 01, 10, 11 (A = input 0 = transistor
// nearest the output, B = input 1), in nA.
func (m *Model) Figure2() [4]float64 {
	var out [4]float64
	for ab := 0; ab < 4; ab++ {
		a := ab >> 1 & 1 // paper lists A as the high-order column
		b := ab & 1
		bits := a | b<<1
		out[ab] = m.GateLeakBits(logic.Nand, 2, bits)
	}
	return out
}
