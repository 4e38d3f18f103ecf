package scan

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// buildFlops returns a frozen circuit with nPI primary inputs and nFF
// flops whose data inputs are inverters of their outputs. RunPacked only
// reads the boundary; the logic is there to make the circuit well formed.
func buildFlops(nPI, nFF int) *netlist.Circuit {
	c := netlist.New("flops")
	for i := 0; i < nPI; i++ {
		c.AddPI("i" + string(rune('a'+i)))
	}
	for f := 0; f < nFF; f++ {
		id := string(rune('a'+f/26)) + string(rune('a'+f%26))
		c.AddFF("f"+id, "q"+id, "d"+id)
		c.AddGate(logic.Not, "d"+id, "q"+id)
	}
	if nFF > 0 {
		c.MarkPO("daa")
	}
	c.MustFreeze()
	return c
}

// response is the capture function both runs use: a mix of the loaded
// state and the PI bits, so the shifted-out responses differ from the
// shifted-in states.
func response(pi, ppi []bool) []bool {
	next := make([]bool, len(ppi))
	for f := range next {
		next[f] = ppi[(f+1)%len(ppi)] != (len(pi) > 0 && pi[f%len(pi)])
	}
	return next
}

// packedResponse is response over packed words of ww words per group.
func packedResponse(ww int) func(pi, ppi, next []uint64) {
	return func(pi, ppi, next []uint64) {
		nFF := len(ppi) / ww
		nPI := len(pi) / ww
		for f := 0; f < nFF; f++ {
			for k := 0; k < ww; k++ {
				w := ppi[(f+1)%nFF*ww+k]
				if nPI > 0 {
					w ^= pi[f%nPI*ww+k]
				}
				next[f*ww+k] = w
			}
		}
	}
}

// checkRunPacked runs ch both ways and requires the packed lane words to
// be bit-equal to Run's ShiftCycle stream, lanes past each batch zero,
// every batch but the last full, and the Pattern hook in order.
func checkRunPacked(t *testing.T, ch Runner, pats []Pattern, cfg ShiftConfig, lanes int) {
	t.Helper()
	c := ch.Circuit()
	var wantPI, wantPPI [][]bool
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			wantPI = append(wantPI, append([]bool(nil), pi...))
			wantPPI = append(wantPPI, append([]bool(nil), ppi...))
		},
		Capture: response,
	}
	ww := lanes / 64
	ph := PackedHooks{Lanes: lanes, Capture: packedResponse(ww)}
	if err := ch.Run(pats, cfg, hooks); err != nil {
		t.Fatal(err)
	}

	cycle, batches, short := 0, 0, false
	var patIdx []int
	ph.Pattern = func(i int) { patIdx = append(patIdx, i) }
	ph.Shift = func(pi, ppi []uint64, n int) {
		batches++
		if short {
			t.Fatalf("batch %d follows a partial batch", batches)
		}
		if n < 1 || n > lanes {
			t.Fatalf("batch of %d lanes at width %d", n, lanes)
		}
		short = n < lanes
		check := func(what string, words []uint64, want [][]bool, groups int) {
			for g := 0; g < groups; g++ {
				for lane := 0; lane < lanes; lane++ {
					got := words[g*ww+lane>>6]>>uint(lane&63)&1 == 1
					switch {
					case lane >= n && got:
						t.Fatalf("%s %d: lane %d set past the batch of %d", what, g, lane, n)
					case lane < n && got != want[cycle+lane][g]:
						t.Fatalf("%s %d: cycle %d packed %v, Run %v", what, g, cycle+lane, got, want[cycle+lane][g])
					}
				}
			}
		}
		if cycle+n > len(wantPI) {
			t.Fatalf("packed run emits more than Run's %d cycles", len(wantPI))
		}
		check("PI", pi, wantPI, len(c.PIs))
		check("flop", ppi, wantPPI, c.NumFFs())
		cycle += n
	}
	if err := ch.RunPacked(pats, cfg, ph); err != nil {
		t.Fatal(err)
	}
	if cycle != len(wantPI) {
		t.Fatalf("packed run emitted %d cycles, Run %d", cycle, len(wantPI))
	}
	if len(patIdx) != len(pats) {
		t.Fatalf("Pattern fired %d times for %d patterns", len(patIdx), len(pats))
	}
	for i, got := range patIdx {
		if got != i {
			t.Fatalf("Pattern[%d] = %d", i, got)
		}
	}
}

// randomRunner threads a random order through c's flops: one chain, or
// nChains chains of random, unequal lengths (empty chains allowed).
func randomRunner(t *testing.T, rng *rand.Rand, c *netlist.Circuit, nChains int) Runner {
	t.Helper()
	order := rng.Perm(c.NumFFs())
	if nChains <= 1 {
		ch, err := NewWithOrder(c, order)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	groups := make([][]int, nChains)
	for _, f := range order {
		k := rng.Intn(nChains)
		groups[k] = append(groups[k], f)
	}
	cs, err := NewChainsWithGroups(c, groups)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// randomRun draws patterns and a shift configuration with muxed cells
// and PI holds.
func randomRun(rng *rand.Rand, c *netlist.Circuit, nPats int) ([]Pattern, ShiftConfig) {
	pats := make([]Pattern, nPats)
	for i := range pats {
		pats[i] = Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
		for j := range pats[i].PI {
			pats[i].PI[j] = rng.Intn(2) == 1
		}
		for j := range pats[i].State {
			pats[i].State[j] = rng.Intn(2) == 1
		}
	}
	cfg := Traditional(c)
	for f := range cfg.Muxed {
		if rng.Intn(4) == 0 {
			cfg.Muxed[f] = true
			cfg.MuxVal[f] = rng.Intn(2) == 1
		}
	}
	for i := range cfg.PIHold {
		cfg.PIHold[i] = logic.Value(rng.Intn(3))
	}
	return pats, cfg
}

// TestRunPackedMatchesRun covers the corners directly: zero patterns,
// single-cycle chains, pattern counts and chain lengths on both sides of
// the 64- and 256-lane batch and capture-block boundaries, and unequal
// multi-chain lengths.
func TestRunPackedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ nPI, nFF, chains, pats int }{
		{2, 3, 1, 0},
		{1, 1, 1, 5},
		{2, 3, 1, 2},
		{3, 70, 1, 4},
		{0, 9, 1, 65},
		{2, 5, 2, 300},
		{4, 40, 3, 20},
		{1, 130, 4, 3},
		{2, 0, 1, 3},
	} {
		c := buildFlops(tc.nPI, tc.nFF)
		ch := randomRunner(t, rng, c, tc.chains)
		pats, cfg := randomRun(rng, c, tc.pats)
		for _, lanes := range []int{64, 256} {
			checkRunPacked(t, ch, pats, cfg, lanes)
		}
	}
}

// FuzzRunPackedMatchesRun: random chain orders, partitions into 1..4
// chains, muxed cells, PI holds and pattern counts, at 64 and 256 lanes.
func FuzzRunPackedMatchesRun(f *testing.F) {
	f.Add(int64(1), uint16(3), uint8(1), uint8(5))
	f.Add(int64(2), uint16(70), uint8(3), uint8(17))
	f.Add(int64(3), uint16(0), uint8(2), uint8(2))
	f.Add(int64(4), uint16(260), uint8(4), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nPats uint16, nChains, nFF uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := buildFlops(rng.Intn(4), int(nFF)%80)
		ch := randomRunner(t, rng, c, int(nChains)%5)
		pats, cfg := randomRun(rng, c, int(nPats)%300)
		for _, lanes := range []int{64, 256} {
			checkRunPacked(t, ch, pats, cfg, lanes)
		}
	})
}

// TestRunPackedErrors: the validation of Run, a bad batch width, and a
// Stop that ends the run before the next pattern.
func TestRunPackedErrors(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	good := Pattern{PI: []bool{true, false}, State: []bool{false, true, false}}
	shift := func(pi, ppi []uint64, n int) {}
	capture := packedResponse(1)
	if err := ch.RunPacked([]Pattern{{PI: []bool{true}, State: good.State}}, Traditional(c),
		PackedHooks{Lanes: 64, Shift: shift, Capture: capture}); err == nil {
		t.Error("accepted short PI vector")
	}
	for _, lanes := range []int{0, 32, 100} {
		h := PackedHooks{Lanes: lanes, Shift: shift, Capture: capture}
		if err := ch.RunPacked([]Pattern{good}, Traditional(c), h); err == nil {
			t.Errorf("accepted %d lanes", lanes)
		}
	}
	stop := errors.New("stop")
	calls := 0
	h := PackedHooks{Lanes: 64, Shift: shift, Capture: capture, Stop: func() error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	}}
	if err := ch.RunPacked([]Pattern{good, good, good}, Traditional(c), h); !errors.Is(err, stop) {
		t.Errorf("Stop error not returned: %v", err)
	}
}
