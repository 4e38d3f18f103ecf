package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/netlist"
)

const s27 = `INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func loadS27(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvalS27KnownVector(t *testing.T) {
	c := loadS27(t)
	s := New(c)
	// All PIs = 0, all state = 0:
	// G14=NOT(0)=1, G8=AND(1,0)=0, G12=NOR(0,0)=1, G15=OR(1,0)=1,
	// G16=OR(0,0)=0, G9=NAND(0,1)=1, G11=NOR(0,1)=0, G17=NOT(0)=1,
	// G10=NOR(1,0)=0, G13=NOR(0,1)=0.
	st := s.Eval([]bool{false, false, false, false}, []bool{false, false, false})
	get := func(name string) bool {
		id, ok := c.NetByName(name)
		if !ok {
			t.Fatalf("net %s missing", name)
		}
		return st[id]
	}
	checks := map[string]bool{
		"G14": true, "G8": false, "G12": true, "G15": true,
		"G16": false, "G9": true, "G11": false, "G17": true,
		"G10": false, "G13": false,
	}
	for name, want := range checks {
		if got := get(name); got != want {
			t.Errorf("net %s = %v, want %v", name, got, want)
		}
	}
	outs := s.Outputs(st)
	if len(outs) != 1 || outs[0] != true {
		t.Errorf("Outputs = %v, want [true]", outs)
	}
	ns := s.NextState(st)
	if len(ns) != 3 || ns[0] || ns[1] || ns[2] {
		t.Errorf("NextState = %v, want all false", ns)
	}
}

func TestEval3AgreesWithEvalOnBinary(t *testing.T) {
	c := loadS27(t)
	s := New(c)
	rng := rand.New(rand.NewSource(1))
	pi := make([]bool, 4)
	ppi := make([]bool, 3)
	pi3 := make([]logic.Value, 4)
	ppi3 := make([]logic.Value, 3)
	for trial := 0; trial < 200; trial++ {
		RandomVector(rng, pi)
		RandomVector(rng, ppi)
		for i, b := range pi {
			pi3[i] = logic.FromBool(b)
		}
		for i, b := range ppi {
			ppi3[i] = logic.FromBool(b)
		}
		st2 := s.Eval(pi, ppi)
		// need a second simulator: Eval and Eval3 share the circuit but
		// use distinct state arrays, so one instance suffices — but Eval3
		// runs after st2 was captured by reference. Copy first.
		st2c := append([]bool(nil), st2...)
		st3 := s.Eval3(pi3, ppi3)
		for n := range st3 {
			if !st3[n].IsBinary() || st3[n].Bool() != st2c[n] {
				t.Fatalf("trial %d: net %s: Eval3=%v Eval=%v",
					trial, c.Nets[n].Name, st3[n], st2c[n])
			}
		}
	}
}

// Property: X inputs in Eval3 are a sound abstraction of both refinements.
func TestEval3XSoundness(t *testing.T) {
	c := loadS27(t)
	s := New(c)
	s2 := New(c)
	rng := rand.New(rand.NewSource(2))
	pi3 := make([]logic.Value, 4)
	ppi3 := make([]logic.Value, 3)
	pi := make([]bool, 4)
	ppi := make([]bool, 3)
	for trial := 0; trial < 100; trial++ {
		for i := range pi3 {
			pi3[i] = logic.Value(rng.Intn(3))
		}
		for i := range ppi3 {
			ppi3[i] = logic.Value(rng.Intn(3))
		}
		st3 := append([]logic.Value(nil), s.Eval3(pi3, ppi3)...)
		// A handful of random refinements.
		for r := 0; r < 8; r++ {
			for i, v := range pi3 {
				if v.IsBinary() {
					pi[i] = v.Bool()
				} else {
					pi[i] = rng.Intn(2) == 1
				}
			}
			for i, v := range ppi3 {
				if v.IsBinary() {
					ppi[i] = v.Bool()
				} else {
					ppi[i] = rng.Intn(2) == 1
				}
			}
			st2 := s2.Eval(pi, ppi)
			for n, v3 := range st3 {
				if v3.IsBinary() && v3.Bool() != st2[n] {
					t.Fatalf("net %s: abstract %v but refinement %v", c.Nets[n].Name, v3, st2[n])
				}
			}
		}
	}
}

func TestEvalNets3(t *testing.T) {
	c := loadS27(t)
	s := New(c)
	assign := make([]logic.Value, c.NumNets())
	for i := range assign {
		assign[i] = logic.X
	}
	for _, piN := range c.PIs {
		assign[piN] = logic.Zero
	}
	for _, q := range c.PseudoInputs() {
		assign[q] = logic.Zero
	}
	st := s.EvalNets3(assign)
	id, _ := c.NetByName("G17")
	if st[id] != logic.One {
		t.Errorf("G17 = %v, want 1", st[id])
	}
}

func TestEvalPanicsOnBadLength(t *testing.T) {
	c := loadS27(t)
	s := New(c)
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong-length inputs did not panic")
		}
	}()
	s.Eval([]bool{true}, []bool{false, false, false})
}

func TestEquivalentSelf(t *testing.T) {
	c := loadS27(t)
	rng := rand.New(rand.NewSource(3))
	if err := Equivalent(c, c, 100, rng); err != nil {
		t.Fatalf("circuit not equivalent to itself: %v", err)
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	c := loadS27(t)
	// Mutate one gate type.
	m, err := bench.ParseString(s27, "s27m")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Gates {
		if m.Gates[i].Type == logic.Nand {
			m.Gates[i].Type = logic.And
		}
	}
	m.MustFreeze()
	rng := rand.New(rand.NewSource(4))
	if err := Equivalent(c, m, 200, rng); err == nil {
		t.Fatal("Equivalent missed a NAND->AND mutation")
	}
}

func TestEquivalentInterfaceMismatch(t *testing.T) {
	c := loadS27(t)
	d, err := bench.ParseString("INPUT(a)\nOUTPUT(o)\no = NOT(a)\n", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := Equivalent(c, d, 10, rng); err == nil {
		t.Fatal("Equivalent accepted mismatched interfaces")
	}
}

func TestEquivalentNameMismatch(t *testing.T) {
	a, _ := bench.ParseString("INPUT(a)\nOUTPUT(o)\no = NOT(a)\n", "a")
	b, _ := bench.ParseString("INPUT(zz)\nOUTPUT(o)\no = NOT(zz)\n", "b")
	rng := rand.New(rand.NewSource(6))
	if err := Equivalent(a, b, 10, rng); err == nil {
		t.Fatal("Equivalent accepted mismatched PI names")
	}
}
