package scan

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// PackedHooks receive the events of RunPacked: the bit-parallel form of
// Hooks, with Lanes consecutive shift cycles per call instead of one.
// Shift and Capture are required.
type PackedHooks struct {
	// Lanes is the number of shift cycles per batch, a positive multiple
	// of 64; every PI and flop carries Lanes/64 words.
	Lanes int
	// Shift receives each batch of n consecutive shift cycles (1 <= n <=
	// Lanes) in stream order: pi holds the words of each primary input
	// (flat, in PI order), ppi those of each flop in FF order, and cycle
	// t of the batch is bit t&63 of word t>>6 of every group. Lanes at or
	// beyond n are zero. The slices are reused across calls.
	Shift func(pi, ppi []uint64, n int)
	// Capture computes the capture responses of up to Lanes patterns at
	// once, in Shift's layout: lane t of pi and ppi carries the applied
	// pattern PI bits and the loaded state of the block's t-th pattern,
	// and Capture must write flop f's next-state words into
	// next[f*Lanes/64:(f+1)*Lanes/64]. Lanes past the block's patterns
	// are zero on input and ignored on output.
	Capture func(pi, ppi, next []uint64)
	// Pattern, when non-nil, fires once per pattern, in order, after the
	// pattern's shift cycles have been emitted into the stream.
	Pattern func(index int)
	// Stop, when non-nil, is consulted before each pattern; a non-nil
	// return aborts the run with that error (cycles of an unfinished
	// batch are then never delivered).
	Stop func() error
}

// RunPacked applies the patterns exactly as Run does and delivers the
// same shift-cycle stimulus, but packed: shift cycle t of the whole run
// lands in lane t%Lanes of batch t/Lanes, bit for bit the ShiftCycle
// values Run would report. It never builds a per-cycle state: the lane
// words come straight from the shift-register algebra (see runPacked),
// and capture responses are computed Lanes patterns per Capture call, which
// is sound because a response depends only on the pattern's own PI bits
// and state. Run stays the semantic definition; tests pin RunPacked to it.
func (ch *Chain) RunPacked(patterns []Pattern, cfg ShiftConfig, h PackedHooks) error {
	return runPacked(ch.c, [][]int{ch.Order}, patterns, cfg, h)
}

// RunPacked is Chain.RunPacked for simultaneously shifting chains: the
// packed form of Chains.Run.
func (cs *Chains) RunPacked(patterns []Pattern, cfg ShiftConfig, h PackedHooks) error {
	return runPacked(cs.c, cs.Groups, patterns, cfg, h)
}

// checkRun validates a run's configuration and pattern sizes.
func checkRun(c *netlist.Circuit, patterns []Pattern, cfg ShiftConfig) error {
	if err := cfg.Validate(c); err != nil {
		return err
	}
	for pi, p := range patterns {
		if len(p.PI) != len(c.PIs) || len(p.State) != c.NumFFs() {
			return fmt.Errorf("scan: pattern %d sized %d/%d, want %d/%d",
				pi, len(p.PI), len(p.State), len(c.PIs), c.NumFFs())
		}
	}
	return nil
}

// runPacked is the shared packed run over chains groups (groups[k][p] is
// the flop at position p of chain k; L is the longest chain).
//
// The algebra: while pattern j shifts in, chain k (length lk) receives
// L-lk zero pad bits and then its slice of the new state, and the flop at
// position p holds, after shift t, the bit that entered p shifts earlier.
// Lay out chain k's in-stream for the pattern as one bit string v of
// lk+L bits — the previous capture response in reverse chain order
// (v[lk-1-q] is the response of the flop at position q), then the L bits
// that enter during this pattern (v[lk+t] enters at shift t). The flop at
// position p then sees v[lk+t-p] at shift t: over the pattern its values
// are the contiguous window v[lk-p : lk-p+L], copied into the lane words
// a whole word at a time. Muxed flops and held PIs are constants, free
// PIs are runs of the pattern bit, and the final flush is one more window
// with an all-zero new state.
func runPacked(c *netlist.Circuit, groups [][]int, patterns []Pattern, cfg ShiftConfig, h PackedHooks) error {
	if err := checkRun(c, patterns, cfg); err != nil {
		return err
	}
	if h.Lanes <= 0 || h.Lanes%64 != 0 {
		return fmt.Errorf("scan: packed batch of %d lanes, want a positive multiple of 64", h.Lanes)
	}
	nPI, nFF := len(c.PIs), c.NumFFs()
	ww := h.Lanes / 64
	L := 0
	for _, g := range groups {
		L = max(L, len(g))
	}

	// Each chain's stream gets its own word-aligned region of v; src[f]
	// is the bit offset of flop f's window start; the bit before it
	// holds the flop's previous response.
	src := make([]int, nFF)
	words := 0
	for _, g := range groups {
		lk := len(g)
		for p, f := range g {
			src[f] = words*64 + lk - p
		}
		words += (lk + L + 63) / 64
	}
	v := make([]uint64, words+1) // +1: load64 reads one word past a window

	piW := make([]uint64, nPI*ww)
	ppiW := make([]uint64, nFF*ww)
	lane := 0
	flush := func() {
		if lane == 0 {
			return
		}
		h.Shift(piW, ppiW, lane)
		clear(piW)
		clear(ppiW)
		lane = 0
	}
	// emit appends the L shift cycles of the window currently in v, with
	// the free PIs at patPI, splitting it across batches as needed.
	emit := func(patPI []bool) {
		for t := 0; t < L; {
			n := min(L-t, h.Lanes-lane)
			for i := 0; i < nPI; i++ {
				val := patPI[i]
				switch cfg.PIHold[i] {
				case logic.Zero:
					val = false
				case logic.One:
					val = true
				}
				if val {
					setBits(piW[i*ww:(i+1)*ww], lane, n)
				}
			}
			for f := 0; f < nFF; f++ {
				g := ppiW[f*ww : (f+1)*ww]
				switch {
				case !cfg.Muxed[f]:
					orBits(g, lane, v, src[f]+t, n)
				case cfg.MuxVal[f]:
					setBits(g, lane, n)
				}
			}
			lane += n
			t += n
			if lane == h.Lanes {
				flush()
			}
		}
	}
	// load lays out v for one pattern period: the previous responses,
	// lane b of prev, then (state != nil) the new state.
	load := func(prev []uint64, b int, state []bool) {
		clear(v)
		k, bit := b>>6, uint(b&63)
		for f := 0; f < nFF; f++ {
			if prev[f*ww+k]>>bit&1 != 0 {
				r := src[f] - 1
				v[r>>6] |= 1 << uint(r&63)
			}
			if state != nil && state[f] {
				// The bit of flop f enters at shift L-1-p, so it sits at
				// v[lk+L-1-p] = v[src[f]+L-1].
				s := src[f] + L - 1
				v[s>>6] |= 1 << uint(s&63)
			}
		}
	}

	// Capture responses, one block of up to Lanes patterns per call: resp
	// holds the current block, prevResp the block before it.
	B := h.Lanes
	capPI := make([]uint64, nPI*ww)
	capPPI := make([]uint64, nFF*ww)
	resp := make([]uint64, nFF*ww)
	prevResp := make([]uint64, nFF*ww) // all zero: the chain starts empty
	for j, pat := range patterns {
		if h.Stop != nil {
			if err := h.Stop(); err != nil {
				return err
			}
		}
		if j%B == 0 {
			resp, prevResp = prevResp, resp
			clear(capPI)
			clear(capPPI)
			for t, bp := range patterns[j:min(j+B, len(patterns))] {
				k, bit := t>>6, uint(t&63)
				for i, b := range bp.PI {
					if b {
						capPI[i*ww+k] |= 1 << bit
					}
				}
				for f, b := range bp.State {
					if b {
						capPPI[f*ww+k] |= 1 << bit
					}
				}
			}
			h.Capture(capPI, capPPI, resp)
		}
		if j%B == 0 {
			load(prevResp, B-1, pat.State) // all zero before the first block
		} else {
			load(resp, j%B-1, pat.State)
		}
		emit(pat.PI)
		if h.Pattern != nil {
			h.Pattern(j)
		}
	}
	// Flush the last response with zero fill under the last PI values.
	if last := len(patterns) - 1; last >= 0 {
		load(resp, last%B, nil)
		emit(patterns[last].PI)
	}
	flush()
	return nil
}

// orBits ORs the n bits of src starting at bit sOff into dst starting at
// bit dOff.
func orBits(dst []uint64, dOff int, src []uint64, sOff, n int) {
	for n > 0 {
		b := uint(dOff & 63)
		take := min(64-int(b), n)
		dst[dOff>>6] |= (load64(src, sOff) & lowMask(take)) << b
		dOff += take
		sOff += take
		n -= take
	}
}

// setBits sets the n bits of dst starting at bit dOff.
func setBits(dst []uint64, dOff, n int) {
	for n > 0 {
		b := uint(dOff & 63)
		take := min(64-int(b), n)
		dst[dOff>>6] |= lowMask(take) << b
		dOff += take
		n -= take
	}
}

// load64 returns the 64 bits of src starting at bit off; bits past the
// end of src read as zero only when off is word-aligned, so callers keep
// one spare word after the last bit they read.
func load64(src []uint64, off int) uint64 {
	i, s := off>>6, uint(off&63)
	w := src[i] >> s
	if s != 0 {
		w |= src[i+1] << (64 - s)
	}
	return w
}

// lowMask returns the k lowest bits set (1 <= k <= 64).
func lowMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}
