package sim

import (
	"math/rand"
	"testing"

	"repro/internal/iscas"
)

// BenchmarkEvalKernels times one combinational pass of the compiled
// program at one and four words per net on s1423.
func BenchmarkEvalKernels(b *testing.B) {
	p, _ := iscas.ByName("s1423")
	c, err := iscas.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	prog := Compile(c)
	rng := rand.New(rand.NewSource(1))
	v1 := make([]uint64, c.NumNets())
	v4 := make([]uint64, c.NumNets()*WideWords)
	for i := range v4 {
		v4[i] = rng.Uint64()
	}
	for i := range v1 {
		v1[i] = v4[i*WideWords]
	}
	b.Run("compiled/w1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog.Run(v1, 1)
		}
	})
	b.Run("compiled/w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog.Run(v4, WideWords)
		}
	})
}
