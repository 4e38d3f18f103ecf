package obs

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/leakage"
)

// TestEstimatePackedAllocsFlat guards the buffer reuse of the packed
// estimator: each call allocates its lane buffers and evaluator once and
// reuses them across batches, so the number of allocations per call must
// not grow with the sample count. A regression that allocates per batch
// shows up as the large run allocating far more than the small one.
func TestEstimatePackedAllocsFlat(t *testing.T) {
	c := testCircuit(t)
	lm := leakage.Default()
	rng := rand.New(rand.NewSource(17))
	run := func(samples int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := EstimatePacked(context.Background(), c, lm, samples, rng,
				PackedOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(256)
	large := run(4096)
	// 4096 samples are 16 batches at the default width; per-batch
	// allocations would exceed the slack by an order of magnitude.
	if large > small+16 {
		t.Errorf("allocs grew with samples: %v at 256, %v at 4096", small, large)
	}
}
