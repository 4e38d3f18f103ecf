package core

import (
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// fillScalar is the serial reference kernel of the minimum-leakage fill:
// one random completion per trial, implied and costed in place. The
// per-trial cost runs on the precomputed X-averaged tables of
// leakage.CircuitTables3 — bit-identical to CircuitLeak, minus the
// per-gate map lookup and refinement enumeration the old loop repeated
// FillTrials times.
//
// Returns the winning per-input values, parallel to unassigned. On
// cancellation mid-search the best completion seen so far is returned
// and the latched context error makes the caller discard the run.
func (f *finder) fillScalar(unassigned []netlist.NetID, trials int) []logic.Value {
	c := f.c
	tabs3 := f.opts.Leak.CircuitTables3(c)
	bestLeak := 0.0
	best := make([]logic.Value, len(unassigned))
	cur := make([]logic.Value, len(unassigned))
	for trial := 0; trial < trials; trial++ {
		if f.cancelled() {
			break
		}
		for i, n := range unassigned {
			if trial == 0 && f.ob != nil {
				cur[i] = logic.FromBool(f.ob.PreferredValue(n))
			} else {
				cur[i] = logic.FromBool(f.rng.Intn(2) == 1)
			}
			f.assign[n] = cur[i]
		}
		f.imply()
		leak := f.opts.Leak.CircuitLeakTabs3(c, f.val, tabs3)
		if trial == 0 || leak < bestLeak {
			bestLeak = leak
			copy(best, cur)
		}
	}
	return best
}

// fillPacked runs the same search many trials at a time on the dual-rail
// three-valued simulator: each trial is one lane (opts.Lanes per batch,
// default sim.WideLanes = 256), free pseudo-inputs stay X in every lane,
// and per-lane costs come from the X-averaged tables in the scalar gate
// order. One pair of net-state buffers and one cost buffer serve every
// batch of the call.
//
// Bit-identity with fillScalar holds at every lane width because (a) the
// candidate bits are drawn up front in the scalar loop's exact rng order
// — trial 0 under the observability directive takes the preferred-value
// vector and draws nothing, (b) the packed dual-rail lanes equal
// logic.Eval on the same inputs, (c) leakage.AccumLeak3PackedW
// accumulates each lane in CircuitLeakTabs3's gate order, and (d) each
// batch is reduced in ascending trial order, before the next one starts,
// with the scalar first-wins tie-break.
func (f *finder) fillPacked(unassigned []netlist.NetID, trials int) []logic.Value {
	best := make([]logic.Value, len(unassigned))
	if f.cancelled() {
		return best
	}
	laneWidth, err := sim.ResolveLanes(f.opts.Lanes)
	if err != nil {
		// BuildContext validates Options.Lanes up front; latch the error
		// for direct finder users and return the empty completion.
		f.err = err
		return best
	}
	ww := laneWidth / 64
	c := f.c
	lm := f.opts.Leak
	tabs3 := lm.CircuitTables3(c)
	nWords := (trials + 63) / 64 // candidate words per input, 64 trials each

	// cand[i*nWords+w] bit t = input i's value in trial w*64+t. Drawn in
	// the scalar loop's exact rng order, independent of the lane width.
	cand := make([]uint64, len(unassigned)*nWords)
	for trial := 0; trial < trials; trial++ {
		w := trial >> 6
		bit := uint64(1) << uint(trial&63)
		for i, n := range unassigned {
			var one bool
			if trial == 0 && f.ob != nil {
				one = f.ob.PreferredValue(n)
			} else {
				one = f.rng.Intn(2) == 1
			}
			if one {
				cand[i*nWords+w] |= bit
			}
		}
	}

	var eval func(v, x []uint64)
	if ww == 1 {
		eval = sim.NewPacked3(c).EvalNets
	} else {
		eval = sim.NewWide3(c).EvalNets
	}

	// The lane pattern every trial shares: committed controlled inputs
	// broadcast their binary value, everything else (free pseudo-inputs,
	// and the unassigned slots about to be overlaid) is X.
	nw := c.NumNets() * ww
	baseV, baseX := make([]uint64, nw), make([]uint64, nw)
	for _, n := range c.CombInputs() {
		grp := int(n) * ww
		if f.controlled[n] && f.assign[n] != logic.X {
			if f.assign[n] == logic.One {
				for k := 0; k < ww; k++ {
					baseV[grp+k] = ^uint64(0)
				}
			}
		} else {
			for k := 0; k < ww; k++ {
				baseX[grp+k] = ^uint64(0)
			}
		}
	}
	v, x := make([]uint64, nw), make([]uint64, nw)
	cyc := make([]float64, laneWidth)

	bestLeak := 0.0
	bestTrial := 0
	mcb := f.opts.Observe.OnMCBatch
	for first := 0; first < trials; first += laneWidth {
		if f.cancelled() {
			break
		}
		n := min(trials-first, laneWidth)
		t0 := time.Now()
		copy(v, baseV)
		copy(x, baseX)
		for i, net := range unassigned {
			grp := int(net) * ww
			copy(v[grp:grp+ww], cand[i*nWords+first/64:(i+1)*nWords])
			for k := 0; k < ww; k++ {
				x[grp+k] = 0
			}
		}
		eval(v, x)
		clear(cyc[:n])
		lm.AccumLeak3PackedW(c, v, x, ww, n, tabs3, cyc)
		elapsed := time.Since(t0)

		// Reduce in ascending trial order — the scalar tie-break.
		for t := 0; t < n; t++ {
			if trial := first + t; trial == 0 || cyc[t] < bestLeak {
				bestLeak = cyc[t]
				bestTrial = trial
			}
		}
		if mcb != nil {
			mcb("fill", n, elapsed)
		}
	}
	for i := range unassigned {
		w := cand[i*nWords+bestTrial>>6]
		best[i] = logic.FromBool(w>>uint(bestTrial&63)&1 == 1)
	}
	return best
}
