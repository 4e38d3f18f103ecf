package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"repro"
	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/techmap"
)

// coldCircuits are the mid-size circuits the cold-designs workload
// submits as inline .bench sources.
var coldCircuits = []string{"s641", "s713", "s1196", "s1238", "s1423", "s1494"}

// sweepCircuit is the circuit every sweep job runs.
const sweepCircuit = "s1423"

// relTol is the relative tolerance on float Table I fields: wide enough
// for accumulation-order ulp drift, far below any real change.
const relTol = 1e-9

// golden maps circuit name to its expected comparison.
type golden map[string]*scanpower.Comparison

func goldenPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "golden", workload+".json")
}

func loadGolden(root, workload string) (golden, error) {
	f, err := os.Open(goldenPath(root, workload))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cmps, err := scanpower.ReadComparisonsJSON(f)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	g := golden{}
	for _, c := range cmps {
		g[c.Circuit] = c
	}
	return g, nil
}

// check compares got against the golden row of circuit: integer fields
// exactly, float fields within relTol. The circuit's own name and the
// activity block are not part of the comparison (cold-designs renames
// every job; activity never changes the simulated columns). It returns
// "" on a match, else a description of the first differences.
func (g golden) check(circuit string, got *scanpower.Comparison) string {
	want, ok := g[circuit]
	if !ok {
		return fmt.Sprintf("%s: no golden row", circuit)
	}
	if got == nil {
		return fmt.Sprintf("%s: no result", circuit)
	}
	a, b := *got, *want
	a.Circuit, b.Circuit = "", ""
	a.Stats.Name, b.Stats.Name = "", ""
	a.Activity, b.Activity = nil, nil
	var diffs []string
	diffValue("", reflect.ValueOf(a), reflect.ValueOf(b), &diffs)
	if len(diffs) == 0 {
		return ""
	}
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... %d more", len(diffs)-3))
	}
	return fmt.Sprintf("%s: golden mismatch %v", circuit, diffs)
}

// diffValue walks two values of one type and appends every differing
// leaf: integers, strings and bools must be equal, floats within relTol.
func diffValue(path string, a, b reflect.Value, out *[]string) {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*out = append(*out, path+": nil vs non-nil")
			}
			return
		}
		diffValue(path, a.Elem(), b.Elem(), out)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() {
				diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), out)
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len()))
			return
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				*out = append(*out, fmt.Sprintf("%s[%v]: missing", path, k))
				continue
			}
			diffValue(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv, out)
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if x != y && math.Abs(x-y) > relTol*math.Max(math.Abs(x), math.Abs(y)) {
			*out = append(*out, fmt.Sprintf("%s: %v vs golden %v", path, x, y))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*out = append(*out, fmt.Sprintf("%s: %d vs golden %d", path, a.Int(), b.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			*out = append(*out, fmt.Sprintf("%s: %d vs golden %d", path, a.Uint(), b.Uint()))
		}
	case reflect.String:
		if a.String() != b.String() {
			*out = append(*out, fmt.Sprintf("%s: %q vs golden %q", path, a.String(), b.String()))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*out = append(*out, fmt.Sprintf("%s: %v vs golden %v", path, a.Bool(), b.Bool()))
		}
	}
}

// renderBench writes a built-in circuit as .bench source, the inline
// form the cold-designs jobs submit.
func renderBench(name string) (string, error) {
	c, err := scanpower.Benchmark(name)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// mapInline technology-maps a parsed inline source the way scanpowerd
// does: only when it is not already library-mapped.
func mapInline(c *netlist.Circuit) (*netlist.Circuit, error) {
	if techmap.IsMapped(c, 4) {
		return c, nil
	}
	return scanpower.Prepare(c)
}

// loadInline resolves inline .bench source the way scanpowerd does.
func loadInline(src, name string) (*netlist.Circuit, error) {
	c, err := scanpower.ParseBench(src, name)
	if err != nil {
		return nil, err
	}
	return mapInline(c)
}

// goldenMain recomputes the committed goldens in process:
//
//	table1        every Table I row from an Engine
//	sweep         the s1423 row
//	cold-designs  the six rows of the round-tripped .bench sources
func goldenMain(args []string) int {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	var root string
	rootFlag(fs, &root)
	fs.Parse(args)
	ctx := context.Background()
	cfg := scanpower.DefaultConfig()

	eng := &scanpower.Engine{Cfg: cfg}
	table, err := eng.RunAll(ctx, scanpower.BenchmarkNames())
	if err != nil {
		fmt.Fprintln(os.Stderr, "golden:", err)
		return 1
	}
	var sweep []*scanpower.Comparison
	for _, c := range table {
		if c.Circuit == sweepCircuit {
			sweep = append(sweep, c)
		}
	}
	var cold []*scanpower.Comparison
	for _, name := range coldCircuits {
		src, err := renderBench(name)
		if err == nil {
			var c *netlist.Circuit
			if c, err = loadInline(src, name); err == nil {
				var cmp *scanpower.Comparison
				if cmp, err = scanpower.Compare(ctx, c, cfg); err == nil {
					cold = append(cold, cmp)
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "golden:", name, err)
			return 1
		}
	}
	for wl, cmps := range map[string][]*scanpower.Comparison{
		"table1": table, "sweep": sweep, "cold-designs": cold,
	} {
		path := goldenPath(root, wl)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "golden:", err)
			return 1
		}
		var buf bytes.Buffer
		if err := scanpower.WriteComparisonsJSON(&buf, cmps); err != nil {
			fmt.Fprintln(os.Stderr, "golden:", err)
			return 1
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "golden:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "golden: wrote %s (%d rows)\n", path, len(cmps))
	}
	return 0
}
