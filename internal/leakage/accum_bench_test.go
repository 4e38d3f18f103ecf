package leakage

import (
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// Micro-benchmarks of the packed leakage accumulator on a real gate mix
// at 64 and 256 lanes.

func benchCircuit(b *testing.B) (*netlist.Circuit, *Model, [][]float64) {
	b.Helper()
	p, ok := iscas.ByName("s5378")
	if !ok {
		b.Skip("no s5378 profile")
	}
	c, err := iscas.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	m := Default()
	return c, m, m.CircuitTables(c)
}

func benchAccum(b *testing.B, n, ww int, fn func(c *netlist.Circuit, words []uint64, n int, tabs [][]float64, cyc []float64)) {
	c, _, tabs := benchCircuit(b)
	rng := rand.New(rand.NewSource(11))
	words := make([]uint64, c.NumNets()*ww)
	for i := range words {
		words[i] = rng.Uint64()
	}
	cyc := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := range cyc {
			cyc[t] = 0
		}
		fn(c, words, n, tabs, cyc)
	}
}

func BenchmarkAccumLeak64(b *testing.B) {
	_, m, _ := benchCircuit(b)
	b.Run("pkg", func(b *testing.B) {
		benchAccum(b, 64, 1, func(c *netlist.Circuit, words []uint64, n int, tabs [][]float64, cyc []float64) {
			m.AccumLeakPackedW(c, words, 1, n, tabs, cyc)
		})
	})
}

func BenchmarkAccumLeak256(b *testing.B) {
	_, m, _ := benchCircuit(b)
	b.Run("pkg", func(b *testing.B) {
		benchAccum(b, 256, 4, func(c *netlist.Circuit, words []uint64, n int, tabs [][]float64, cyc []float64) {
			m.AccumLeakPackedW(c, words, 4, n, tabs, cyc)
		})
	})
}
