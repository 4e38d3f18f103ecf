package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// solutionsIdentical returns "" when two solutions agree bit for bit on
// every externally visible field, else the first differing field. The
// packed MC kernels promise bit-identity with the reference, so no
// tolerance is applied anywhere.
func solutionsIdentical(a, b *Solution) string {
	if a.Stats != b.Stats {
		return "Stats"
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return "Assign"
		}
		if a.Val[i] != b.Val[i] {
			return "Val"
		}
		if a.Trans[i] != b.Trans[i] {
			return "Trans"
		}
	}
	for i := range a.Cfg.PIHold {
		if a.Cfg.PIHold[i] != b.Cfg.PIHold[i] {
			return "Cfg.PIHold"
		}
	}
	for i := range a.Cfg.Muxed {
		if a.Cfg.Muxed[i] != b.Cfg.Muxed[i] || a.Cfg.MuxVal[i] != b.Cfg.MuxVal[i] {
			return "Cfg.Mux"
		}
	}
	return ""
}

// TestMCPackedBuildEquivalence: the packed Monte-Carlo kernels must
// reproduce the scalar reference kernels' full flow output — assignment, implied
// state, Table-I-feeding stats, shift config — on real circuits, for both
// the proposed flow and the input-control baseline.
func TestMCPackedBuildEquivalence(t *testing.T) {
	p, _ := iscas.ByName("s344")
	gen, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	circuits := map[string]*netlist.Circuit{"s27": mappedS27(t), "s344": gen}
	for name, c := range circuits {
		for _, mk := range []func() Options{ProposedOptions, InputControlOptions} {
			scalarOpts := mk()
			ref, err := BuildReference(context.Background(), c, scalarOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, lanes := range sim.LaneWidths() {
				packedOpts := mk()
				packedOpts.Lanes = lanes
				got, err := Build(c, packedOpts)
				if err != nil {
					t.Fatal(err)
				}
				if field := solutionsIdentical(ref, got); field != "" {
					t.Errorf("%s UseMux=%v lanes=%d: %s differs between scalar and packed kernels",
						name, scalarOpts.UseMux, lanes, field)
				}
			}
		}
	}
}

func TestMCBackendValidation(t *testing.T) {
	c := mappedS27(t)
	opts := ProposedOptions()
	opts.MC = "vectorized" // not a backend
	if _, err := Build(c, opts); err == nil {
		t.Fatal("Build accepted an unknown MC backend")
	}
	opts = ProposedOptions()
	opts.Lanes = 128 // not a supported lane width
	if _, err := Build(c, opts); err == nil {
		t.Fatal("Build accepted an unsupported lane width")
	}
}

// TestBuildObsDeadline: a context cancelled while the observability
// estimate is running must abort the whole flow with the context's error
// — on the packed kernels and on the reference.
func TestBuildObsDeadline(t *testing.T) {
	c := mappedS27(t)
	builds := map[string]func(context.Context, *netlist.Circuit, Options) (*Solution, error){
		"packed": BuildContext, "reference": BuildReference,
	}
	for name, build := range builds {
		ctx, cancel := context.WithCancel(context.Background())
		opts := ProposedOptions()
		opts.ObsSamples = 1 << 20
		opts.Observe.OnObsSamples = func(int) { cancel() }
		sol, err := build(ctx, c, opts)
		if err != context.Canceled {
			t.Errorf("%s: build = (%v, %v), want context.Canceled", name, sol, err)
		}
	}
}

// TestMCBatchTelemetry: every packed Monte-Carlo batch
// must surface through Observer.OnMCBatch, with lane totals accounting
// for every observability vector and every fill trial exactly once.
func TestMCBatchTelemetry(t *testing.T) {
	c := mappedS27(t)
	opts := ProposedOptions()
	opts.ObsSamples = 200
	opts.FillTrials = 100
	for _, width := range sim.LaneWidths() {
		opts.Lanes = width
		laneTotal := map[string]int{}
		opts.Observe.OnMCBatch = func(kind string, lanes int, elapsed time.Duration) {
			if kind != "obs" && kind != "fill" {
				t.Errorf("unknown MC batch kind %q", kind)
			}
			if lanes < 1 || lanes > width {
				t.Errorf("width %d: %s batch carries %d lanes", width, kind, lanes)
			}
			if elapsed < 0 {
				t.Errorf("%s batch has negative elapsed", kind)
			}
			laneTotal[kind] += lanes
		}
		sol, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if laneTotal["obs"] != opts.ObsSamples {
			t.Errorf("width %d: obs batches carried %d lanes, want %d", width, laneTotal["obs"], opts.ObsSamples)
		}
		if sol.Stats.FilledInputs == 0 {
			t.Fatal("flow left no don't-cares to fill; test circuit no longer exercises fill")
		}
		if laneTotal["fill"] != opts.FillTrials {
			t.Errorf("width %d: fill batches carried %d lanes, want %d", width, laneTotal["fill"], opts.FillTrials)
		}
	}
	opts.Lanes = 0

	// MC is a no-op: the "scalar" name still runs the packed kernels.
	// Only the reference build evaluates no packed batches.
	opts.MC = MCScalar
	calls := 0
	opts.Observe.OnMCBatch = func(string, int, time.Duration) { calls++ }
	if _, err := Build(c, opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error(`MC="scalar" emitted no packed MC batches`)
	}
	calls = 0
	if _, err := BuildReference(context.Background(), c, opts); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("reference build emitted %d MC batches", calls)
	}
}

// randomMCCircuit builds a small random, well-formed frozen circuit from
// the fuzz seed: a DAG of random gates over a few PIs and flops.
func randomMCCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("fuzz")
	nPI := 1 + rng.Intn(3)
	nFF := 1 + rng.Intn(4)
	var nets []string
	for i := 0; i < nPI; i++ {
		name := "pi" + string(rune('a'+i))
		c.AddPI(name)
		nets = append(nets, name)
	}
	for i := 0; i < nFF; i++ {
		q := "q" + string(rune('a'+i))
		nets = append(nets, q)
	}
	types := []logic.GateType{logic.Not, logic.Buf, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Mux2}
	nGates := 3 + rng.Intn(20)
	var driven []string
	for i := 0; i < nGates; i++ {
		tpe := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(3)
		switch tpe {
		case logic.Not, logic.Buf:
			arity = 1
		case logic.Mux2:
			arity = 3
		}
		ins := make([]string, arity)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := "g" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		c.AddGate(tpe, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	for i := 0; i < nFF; i++ {
		d := driven[rng.Intn(len(driven))]
		c.AddFF("f"+string(rune('a'+i)), "q"+string(rune('a'+i)), d)
	}
	c.MarkPO(driven[len(driven)-1])
	c.MustFreeze()
	return c
}

// FuzzMCPackedEquivalence drives random circuits and flow shapes through
// the packed Monte-Carlo kernels and the scalar reference and requires
// bit-equal solutions. `make
// fuzz-equiv` runs this continuously; the seed corpus runs on every
// `go test`.
func FuzzMCPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), true, uint8(100), uint8(70))
	f.Add(int64(2), uint8(0xFF), false, uint8(1), uint8(1))
	f.Add(int64(99), uint8(0b1010), true, uint8(65), uint8(129))
	f.Fuzz(func(t *testing.T, seed int64, muxMask uint8, obsDirected bool, obsSamples, fillTrials uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomMCCircuit(rng)
		mk := func() Options {
			opts := ProposedOptions()
			opts.Seed = seed
			opts.ObsDirected = obsDirected
			opts.ObsSamples = int(obsSamples) + 1
			opts.FillTrials = int(fillTrials) + 1
			opts.MuxMask = make([]bool, c.NumFFs())
			for fi := range opts.MuxMask {
				opts.MuxMask[fi] = muxMask>>(uint(fi)%8)&1 == 1
			}
			return opts
		}
		ref, err := BuildReference(context.Background(), c, mk())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(c, mk())
		if err != nil {
			t.Fatal(err)
		}
		if field := solutionsIdentical(ref, got); field != "" {
			t.Fatalf("seed=%d mux=%x obs=%v samples=%d trials=%d: %s differs",
				seed, muxMask, obsDirected, int(obsSamples)+1, int(fillTrials)+1, field)
		}
	})
}
