package netlist

import (
	"hash/fnv"
	"slices"
)

// Fingerprint returns a structural hash of the frozen circuit: the name,
// the PI/PO/FF boundary, and every gate's type and connectivity. Two
// circuits built the same way (for example, two Generate runs of the same
// ISCAS89 profile) share a fingerprint, so it can key caches of derived
// artifacts such as ATPG pattern sets. Frozen circuits are immutable, so
// the value never goes stale.
func (c *Circuit) Fingerprint() uint64 {
	c.needFrozen()
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	put := func(vs ...int) {
		buf = buf[:0]
		for _, v := range vs {
			u := uint64(v)
			buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		}
		h.Write(buf)
	}
	h.Write([]byte(c.Name))
	put(len(c.Nets), len(c.Gates), len(c.PIs), len(c.POs), len(c.FFs))
	for _, n := range c.PIs {
		put(int(n))
	}
	for _, n := range c.POs {
		put(int(n))
	}
	for _, ff := range c.FFs {
		put(int(ff.Q), int(ff.D))
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		put(int(g.Type), int(g.Output), len(g.Inputs))
		for _, in := range g.Inputs {
			put(int(in))
		}
	}
	return h.Sum64()
}

// SameStructure reports whether c and o are the same netlist up to names:
// equal net counts, the same PI, PO and flop boundary, and every gate of
// the same type driving the same net from the same inputs in the same
// order. Analyses that read only structure (compiled simulation, loads,
// leakage states) give equal results on such circuits. It is the exact
// form of comparing Fingerprints, without hashing.
func (c *Circuit) SameStructure(o *Circuit) bool {
	if c == o {
		return true
	}
	if len(c.Nets) != len(o.Nets) || len(c.Gates) != len(o.Gates) ||
		!slices.Equal(c.PIs, o.PIs) || !slices.Equal(c.POs, o.POs) || len(c.FFs) != len(o.FFs) {
		return false
	}
	for i, ff := range c.FFs {
		if ff.D != o.FFs[i].D || ff.Q != o.FFs[i].Q {
			return false
		}
	}
	for gi := range c.Gates {
		g, h := &c.Gates[gi], &o.Gates[gi]
		if g.Type != h.Type || g.Output != h.Output || !slices.Equal(g.Inputs, h.Inputs) {
			return false
		}
	}
	return true
}
