package leakage

import (
	"math/bits"

	"repro/internal/netlist"
)

// Occupancy counts, for every gate of a frozen circuit and every binary
// input state of that gate, how many evaluated cycles the gate spent in
// the state. A mean leakage over a run needs nothing more: it is
// Σ count·table / cycles, and the counts are exact integers however the
// cycles were evaluated, so a serial and a bit-parallel kernel that agree
// on the counts agree on the mean to the last bit.
type Occupancy struct {
	c *netlist.Circuit
	// off[gi] is the first slot of gate gi; its 1<<arity states (bit i =
	// input i, the CircuitTables index) run to off[gi+1].
	off    []int32
	n      []int64
	cycles int64
}

// NewOccupancy returns zeroed counters for the frozen circuit c.
func NewOccupancy(c *netlist.Circuit) *Occupancy {
	off := stateOffsets(c)
	return &Occupancy{c: c, off: off, n: make([]int64, off[len(off)-1])}
}

// stateOffsets lays out one slot per (gate, input state), gate-major.
func stateOffsets(c *netlist.Circuit) []int32 {
	off := make([]int32, c.NumGates()+1)
	for gi := range c.Gates {
		off[gi+1] = off[gi] + 1<<len(c.Gates[gi].Inputs)
	}
	return off
}

// Reset zeroes every count.
func (o *Occupancy) Reset() {
	clear(o.n)
	o.cycles = 0
}

// Cycles returns the number of cycles counted.
func (o *Occupancy) Cycles() int64 { return o.cycles }

// Gate returns gate gi's per-state counts, indexed by input pattern (bit
// i = input i). The slice aliases the counters; do not modify.
func (o *Occupancy) Gate(gi int) []int64 { return o.n[o.off[gi]:o.off[gi+1]] }

// AddState counts one cycle of the per-net binary state.
func (o *Occupancy) AddState(state []bool) {
	for gi := range o.c.Gates {
		idx := 0
		for i, in := range o.c.Gates[gi].Inputs {
			if state[in] {
				idx |= 1 << i
			}
		}
		o.n[int(o.off[gi])+idx]++
	}
	o.cycles++
}

// OccupancyLeak folds the counts into the total leakage over all counted
// cycles, in nA·cycles: Σ count·table[state] accumulated in ascending
// (gate, state) order, with each gate's table the one CircuitTables
// gives it. The order is fixed, so equal counts give bit-equal totals.
func (m *Model) OccupancyLeak(o *Occupancy) float64 {
	sum := 0.0
	for gi := range o.c.Gates {
		g := &o.c.Gates[gi]
		tab := m.table(g.Type, len(g.Inputs))
		for s, k := range o.Gate(gi) {
			sum += float64(k) * tab[s]
		}
	}
	return sum
}

// StateCounter accumulates an Occupancy from bit-parallel per-net lane
// words without resolving any lane's state. For a gate and any subset S
// of its inputs, popcount(AND of the inputs in S) is the number of lanes
// in which every input of S is 1 — the superset sum of the state counts.
// Those subset popcounts are accumulated across batches (3 per word for a
// two-input gate, 15 for a four-input one) and turned into exact state
// counts once, by Möbius inversion, in Resolve.
type StateCounter struct {
	occ Occupancy // subset popcounts until Resolve: slot S = P[S]
	and []uint64  // scratch for gates wider than four inputs
}

// NewStateCounter returns a zeroed counter for the frozen circuit c.
func NewStateCounter(c *netlist.Circuit) *StateCounter {
	return &StateCounter{occ: *NewOccupancy(c)}
}

// Reset zeroes every count and starts a new accumulation.
func (sc *StateCounter) Reset() { sc.occ.Reset() }

// CountStatesPacked counts n cycles of packed per-net state: words holds
// ww uint64 words per net (net n's group at words[int(n)*ww:...], lane t
// at bit t&63 of word t>>6 — the layout of sim.Packed at ww=1 and
// sim.Wide at ww=4). Lanes at or beyond n are ignored.
func (sc *StateCounter) CountStatesPacked(words []uint64, ww, n int) {
	nw := (n + 63) >> 6
	last := validMask(n - (nw-1)*64)
	o := &sc.occ
	for gi := range o.c.Gates {
		ins := o.c.Gates[gi].Inputs
		p := o.n[o.off[gi]:o.off[gi+1]]
		switch len(ins) {
		case 1:
			a0 := words[int(ins[0])*ww:]
			var c1 int
			for k := 0; k < nw; k++ {
				m := validOr(k, nw, last)
				c1 += bits.OnesCount64(a0[k] & m)
			}
			p[1] += int64(c1)
		case 2:
			a0, a1 := words[int(ins[0])*ww:], words[int(ins[1])*ww:]
			var c1, c2, c3 int
			for k := 0; k < nw; k++ {
				m := validOr(k, nw, last)
				a, b := a0[k]&m, a1[k]&m
				c1 += bits.OnesCount64(a)
				c2 += bits.OnesCount64(b)
				c3 += bits.OnesCount64(a & b)
			}
			p[1] += int64(c1)
			p[2] += int64(c2)
			p[3] += int64(c3)
		case 3:
			a0, a1, a2 := words[int(ins[0])*ww:], words[int(ins[1])*ww:], words[int(ins[2])*ww:]
			var cs [8]int
			for k := 0; k < nw; k++ {
				m := validOr(k, nw, last)
				a, b, c := a0[k]&m, a1[k]&m, a2[k]&m
				ab := a & b
				cs[1] += bits.OnesCount64(a)
				cs[2] += bits.OnesCount64(b)
				cs[3] += bits.OnesCount64(ab)
				cs[4] += bits.OnesCount64(c)
				cs[5] += bits.OnesCount64(a & c)
				cs[6] += bits.OnesCount64(b & c)
				cs[7] += bits.OnesCount64(ab & c)
			}
			for s := 1; s < 8; s++ {
				p[s] += int64(cs[s])
			}
		case 4:
			a0, a1 := words[int(ins[0])*ww:], words[int(ins[1])*ww:]
			a2, a3 := words[int(ins[2])*ww:], words[int(ins[3])*ww:]
			var cs [16]int
			for k := 0; k < nw; k++ {
				m := validOr(k, nw, last)
				a, b, c, d := a0[k]&m, a1[k]&m, a2[k]&m, a3[k]&m
				ab, ac, bc := a&b, a&c, b&c
				abc := ab & c
				cs[1] += bits.OnesCount64(a)
				cs[2] += bits.OnesCount64(b)
				cs[3] += bits.OnesCount64(ab)
				cs[4] += bits.OnesCount64(c)
				cs[5] += bits.OnesCount64(ac)
				cs[6] += bits.OnesCount64(bc)
				cs[7] += bits.OnesCount64(abc)
				cs[8] += bits.OnesCount64(d)
				cs[9] += bits.OnesCount64(a & d)
				cs[10] += bits.OnesCount64(b & d)
				cs[11] += bits.OnesCount64(ab & d)
				cs[12] += bits.OnesCount64(c & d)
				cs[13] += bits.OnesCount64(ac & d)
				cs[14] += bits.OnesCount64(bc & d)
				cs[15] += bits.OnesCount64(abc & d)
			}
			for s := 1; s < 16; s++ {
				p[s] += int64(cs[s])
			}
		default:
			// Wider gates are rare: build every subset's AND from the
			// subset without its lowest input.
			if cap(sc.and) < len(p) {
				sc.and = make([]uint64, len(p))
			}
			and := sc.and[:len(p)]
			for k := 0; k < nw; k++ {
				and[0] = validOr(k, nw, last)
				for s := 1; s < len(p); s++ {
					i := bits.TrailingZeros(uint(s))
					and[s] = and[s&(s-1)] & words[int(ins[i])*ww+k]
					p[s] += int64(bits.OnesCount64(and[s]))
				}
			}
		}
	}
	o.cycles += int64(n)
}

// validOr returns the lane mask of word k of an nw-word batch: every lane
// except in the last word, whose mask is last.
func validOr(k, nw int, last uint64) uint64 {
	if k == nw-1 {
		return last
	}
	return ^uint64(0)
}

// Resolve ends the accumulation and returns the exact per-state counts
// of everything counted since the last Reset. It inverts each gate's
// subset popcounts in place — the count of state S is Σ over supersets T
// of S of (-1)^|T\S|·P[T], with P[∅] the cycle count — so the returned
// Occupancy aliases the counter: read it before the next Reset, and
// Reset before counting again.
func (sc *StateCounter) Resolve() *Occupancy {
	o := &sc.occ
	for gi := range o.c.Gates {
		f := o.Gate(gi)
		f[0] = o.cycles
		for b := 1; b < len(f); b <<= 1 {
			for s := range f {
				if s&b == 0 {
					f[s] -= f[s|b]
				}
			}
		}
	}
	return o
}
