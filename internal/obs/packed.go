package obs

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// PackedOpts tunes EstimatePacked. The zero value is a good default.
type PackedOpts struct {
	// Lanes is the batch width: how many random vectors are evaluated per
	// packed pass (see sim.LaneWidths; 0 means the default,
	// sim.WideLanes). Estimates are bit-identical across widths.
	Lanes int
	// OnSamples, when non-nil, receives the number of vectors folded into
	// the estimate since its previous call — once per packed batch.
	OnSamples func(n int)
	// OnBatch, when non-nil, fires once per packed batch with its lane
	// count and evaluation wall time. It feeds the telemetry layer's
	// mc-batch spans and lane counters.
	OnBatch func(lanes int, elapsed time.Duration)
}

// EstimatePacked is EstimateObserved on the bit-parallel simulator:
// opts.Lanes random vectors (default sim.WideLanes = 256) pack into lane
// words per net, the compiled combinational core evaluates once per
// batch, per-lane leakage comes from leakage.AccumLeakPackedW, and the
// per-line conditional accumulators fold through
// leakage.AccumLineLeakPackedW. One set of lane buffers and one evaluator
// serve every batch of the call.
//
// The result is bit-identical to the scalar kernel for the same rng, not
// merely statistically equivalent — and therefore seed-stable at every
// lane width: the random stream is drawn in the exact serial sample order
// while packing (so the rng ends in the same state the scalar kernel
// leaves it in), each lane's leakage is summed in the scalar gate order,
// and each batch is folded before the next one is drawn.
//
// ctx is checked before every batch, so a job deadline aborts the
// estimate promptly with ctx's error.
func EstimatePacked(ctx context.Context, c *netlist.Circuit, lm *leakage.Model, samples int,
	rng *rand.Rand, opts PackedOpts) (*Observability, error) {

	lanes, err := sim.ResolveLanes(opts.Lanes)
	if err != nil {
		return nil, err
	}
	ww := lanes / 64

	if samples <= 0 {
		samples = 128
	}
	nNets := c.NumNets()
	sum1 := make([]float64, nNets)
	cnt1 := make([]int, nNets)
	sumAll := 0.0

	leakTabs := lm.CircuitTables(c)
	var eval func(pi, ppi []uint64) []uint64
	if ww == 1 {
		eval = sim.NewPacked(c).Eval
	} else {
		eval = sim.NewWide(c).Eval
	}
	nPI, nFF := len(c.PIs), c.NumFFs()
	pi := make([]uint64, nPI*ww)
	ppi := make([]uint64, nFF*ww)
	cyc := make([]float64, lanes)

	for drawn := 0; drawn < samples; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := min(samples-drawn, lanes)
		drawn += n

		// Draw the batch in the exact serial order the scalar kernel
		// consumes the stream: per sample, PI vector then PPI vector,
		// packed as lane (sample mod lanes).
		clear(pi)
		clear(ppi)
		for t := 0; t < n; t++ {
			wk, bit := t>>6, uint(t&63)
			for i := 0; i < nPI; i++ {
				pi[i*ww+wk] |= coin(rng) << bit
			}
			for i := 0; i < nFF; i++ {
				ppi[i*ww+wk] |= coin(rng) << bit
			}
		}

		t0 := time.Now()
		words := eval(pi, ppi)
		clear(cyc[:n])
		lm.AccumLeakPackedW(c, words, ww, n, leakTabs, cyc)
		elapsed := time.Since(t0)

		for t := 0; t < n; t++ {
			sumAll += cyc[t]
		}
		leakage.AccumLineLeakPackedW(words, ww, n, cyc, sum1, cnt1)
		if opts.OnSamples != nil {
			opts.OnSamples(n)
		}
		if opts.OnBatch != nil {
			opts.OnBatch(n, elapsed)
		}
	}
	return finish(nNets, samples, sumAll, sum1, cnt1), nil
}

// coin draws one fair bit from rng with the same consumption as
// sim.RandomVector (one Intn(2) per value), returning it as a 0/1 word.
func coin(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 1 {
		return 1
	}
	return 0
}
