package scanpower

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/sim"
)

// referenceComparison assembles the Table I row of c from the slow
// reference kernels alone: the scalar Monte-Carlo builds
// (core.BuildReference) measured by the dense full re-evaluation
// (power.MeasureScan), on the same patterns Compare generates.
func referenceComparison(t *testing.T, c *netlist.Circuit, cfg Config) *Comparison {
	t.Helper()
	ctx := context.Background()
	res, err := atpg.Generate(c, scaledATPG(c, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cmp := &Comparison{Circuit: c.Name}
	if cmp.Traditional, err = power.MeasureScan(scan.New(c), res.Patterns, scan.Traditional(c),
		cfg.Leak, cfg.Cap); err != nil {
		t.Fatal(err)
	}
	structures := []struct {
		opts  core.Options
		rep   *power.Report
		stats *core.Stats
	}{
		{cfg.InputControl, &cmp.InputControl, &cmp.InputControlStats},
		{cfg.Proposed, &cmp.Proposed, &cmp.ProposedStats},
	}
	for _, st := range structures {
		sol, err := core.BuildReference(ctx, c, st.opts)
		if err != nil {
			t.Fatal(err)
		}
		*st.stats = sol.Stats
		if *st.rep, err = power.MeasureScan(scan.New(sol.Circuit), res.Patterns, sol.Cfg,
			cfg.Leak, cfg.Cap); err != nil {
			t.Fatal(err)
		}
	}
	return cmp
}

// TestMCBackendRowEquivalence: the production pipeline (packed
// Monte-Carlo and packed measurement kernels) must reproduce the Table I
// row the reference kernels give, bit for bit, under every accepted
// Config.MC name — the seed-stability contract at the outermost layer of
// the API.
func TestMCBackendRowEquivalence(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	want := referenceComparison(t, c, DefaultConfig())
	for _, backend := range MCBackends() {
		cfg := DefaultConfig()
		cfg.MC = backend
		got, err := Compare(context.Background(), c, cfg)
		if err != nil {
			t.Fatalf("%q: %v", backend, err)
		}
		if got.Traditional != want.Traditional || got.InputControl != want.InputControl ||
			got.Proposed != want.Proposed {
			t.Errorf("MC=%q: Table I row differs from the reference kernels:\ngot:  %s\nwant: %s",
				backend, got.Row(), want.Row())
		}
		if got.ProposedStats != want.ProposedStats {
			t.Errorf("MC=%q: proposed stats %+v, reference %+v", backend, got.ProposedStats, want.ProposedStats)
		}
		if got.InputControlStats != want.InputControlStats {
			t.Errorf("MC=%q: input-control stats %+v, reference %+v",
				backend, got.InputControlStats, want.InputControlStats)
		}
	}
}

func TestMCBackendsList(t *testing.T) {
	if len(MCBackends()) != 2 {
		t.Fatalf("MCBackends = %v, want packed and scalar", MCBackends())
	}
	cfg := DefaultConfig()
	if cfg.MC != MCPacked {
		t.Errorf("DefaultConfig MC backend = %q, want %q", cfg.MC, MCPacked)
	}
}

func TestCompareRejectsUnknownMCBackend(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MC = "simd" // not a backend
	if _, err := Compare(context.Background(), c, cfg); err == nil {
		t.Fatal("Compare accepted an unknown MC backend")
	}
}

// TestRecorderMCBatches: a run on the default (packed) MC backend must
// surface the Monte-Carlo kernels in telemetry — a live lane counter and
// per-batch "mc-batch" spans tagged with their kind, nested under the
// structure-build stages.
func TestRecorderMCBatches(t *testing.T) {
	_, reg, traceBuf := runWithRecorder(t, []string{"s344"}, 1)

	snap := reg.Snapshot()
	if snap[MetricMCLanes] <= 0 {
		t.Errorf("metric %s = %v, want > 0", MetricMCLanes, snap[MetricMCLanes])
	}

	kinds := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(traceBuf.Bytes()))
	for sc.Scan() {
		var ev struct {
			Name  string `json:"name"`
			Attrs struct {
				Kind  string `json:"kind"`
				Lanes int    `json:"lanes"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Name != "mc-batch" || ev.Attrs.Kind == "" {
			continue
		}
		if ev.Attrs.Lanes < 1 || ev.Attrs.Lanes > sim.WideLanes {
			t.Errorf("mc-batch span carries %d lanes", ev.Attrs.Lanes)
		}
		kinds[ev.Attrs.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["obs"] == 0 {
		t.Error("no obs mc-batch spans in trace")
	}
	if kinds["fill"] == 0 {
		t.Error("no fill mc-batch spans in trace")
	}
}
