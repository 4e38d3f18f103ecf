package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomArityCircuit builds a frozen circuit whose gates have random
// arities from 1 to 5 over a few PIs and flops, so every CountStatesPacked
// path — the unrolled one- to four-input cases and the generic one — is
// exercised. Counting reads only the gates' input nets, so the gate types
// matter only to the leakage fold.
func randomArityCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("arity-fuzz")
	nets := []string{"a", "b", "c", "q0"}
	for _, pi := range nets[:3] {
		c.AddPI(pi)
	}
	nGates := 2 + rng.Intn(12)
	for i := 0; i < nGates; i++ {
		arity := 1 + rng.Intn(5)
		ins := make([]string, arity)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := "g" + string(rune('a'+i))
		typ := []logic.GateType{logic.Nand, logic.Nor, logic.And, logic.Or, logic.Xor}[rng.Intn(5)]
		if arity == 1 {
			typ = logic.Not
		}
		c.AddGate(typ, out, ins...)
		nets = append(nets, out)
	}
	c.AddFF("f0", "q0", nets[len(nets)-1])
	c.MarkPO(nets[len(nets)-1])
	c.MustFreeze()
	return c
}

// FuzzCountStatesPacked: the popcount counter must reproduce, exactly, a
// scalar counter that reads each lane's state bit by bit, for gates of
// arity 1 to 5, one and four words per net, partial last words and
// several accumulated batches; and every gate's state counts must sum to
// the cycles counted.
func FuzzCountStatesPacked(f *testing.F) {
	f.Add(int64(1), uint8(1), false)
	f.Add(int64(2), uint8(3), true)
	f.Add(int64(3), uint8(0), true)
	f.Add(int64(44), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, batches uint8, wide bool) {
		rng := rand.New(rand.NewSource(seed))
		c := randomArityCircuit(rng)
		ww := 1
		if wide {
			ww = 4
		}
		sc := NewStateCounter(c)
		scalar := NewOccupancy(c)
		want := make([][]int64, c.NumGates())
		for gi := range want {
			want[gi] = make([]int64, 1<<len(c.Gates[gi].Inputs))
		}
		state := make([]bool, c.NumNets())
		cycles := int64(0)
		for b := 0; b < int(batches)%6; b++ {
			n := rng.Intn(64*ww + 1) // 0..lanes, mostly partial words
			words := make([]uint64, c.NumNets()*ww)
			for i := range words {
				words[i] = rng.Uint64() // lanes >= n carry garbage the counter must ignore
			}
			sc.CountStatesPacked(words, ww, n)
			for lane := 0; lane < n; lane++ {
				for ni := range state {
					state[ni] = words[ni*ww+lane>>6]>>uint(lane&63)&1 == 1
				}
				for gi := range c.Gates {
					idx := 0
					for i, in := range c.Gates[gi].Inputs {
						if state[in] {
							idx |= 1 << i
						}
					}
					want[gi][idx]++
				}
				scalar.AddState(state)
			}
			cycles += int64(n)
		}
		got := sc.Resolve()
		if got.Cycles() != cycles || scalar.Cycles() != cycles {
			t.Fatalf("cycles: packed %d, scalar %d, want %d", got.Cycles(), scalar.Cycles(), cycles)
		}
		for gi := range c.Gates {
			sum := int64(0)
			for s, k := range got.Gate(gi) {
				if k != want[gi][s] || scalar.Gate(gi)[s] != want[gi][s] {
					t.Fatalf("gate %d (arity %d) state %b: packed %d, AddState %d, want %d",
						gi, len(c.Gates[gi].Inputs), s, k, scalar.Gate(gi)[s], want[gi][s])
				}
				sum += k
			}
			if sum != cycles {
				t.Fatalf("gate %d: state counts sum to %d over %d cycles", gi, sum, cycles)
			}
		}
		m := Default()
		if a, b := m.OccupancyLeak(got), m.OccupancyLeak(scalar); a != b {
			t.Fatalf("equal counts folded to %v and %v", a, b)
		}
	})
}

// TestOccupancyLeakIsMeanLeak: folding the counts gives the same total as
// summing CircuitLeakBool cycle by cycle, up to float rounding — the two
// are the same sum in a different order.
func TestOccupancyLeakIsMeanLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomArityCircuit(rng)
	m := Default()
	o := NewOccupancy(c)
	state := make([]bool, c.NumNets())
	perCycle := 0.0
	for cyc := 0; cyc < 500; cyc++ {
		for i := range state {
			state[i] = rng.Intn(2) == 1
		}
		o.AddState(state)
		perCycle += m.CircuitLeakBool(c, state)
	}
	if got := m.OccupancyLeak(o); math.Abs(got-perCycle) > 1e-9*perCycle {
		t.Errorf("OccupancyLeak = %v, per-cycle sum %v", got, perCycle)
	}
	o.Reset()
	if o.Cycles() != 0 || m.OccupancyLeak(o) != 0 {
		t.Error("Reset left counts behind")
	}
}
