package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// readRecords loads every run record from a file of captured perfbench
// standard output (any number of runs, concatenated).
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"perfbench_record"`) {
			continue
		}
		var w struct {
			Rec *record `json:"perfbench_record"`
		}
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if w.Rec != nil {
			out = append(out, w.Rec)
		}
	}
	return out, sc.Err()
}

// series collects one metric's values in run order, with the seeds.
func series(recs []*record, workload string, traced bool, name string) (vals []float64, seeds []int64) {
	for _, r := range recs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			vals = append(vals, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds
}

// verdict applies the choosing-metrics rule to one metric: a change is
// better only when it wins at least nine tenths of the pairs and its
// median beats the parent's by more than the parent's interquartile
// spread; it is worse when its median is worse by more than the bound;
// a metric whose parent spread exceeds its bound is unresolved unless
// every change run beats every parent run.
func verdict(m specMetric, parent, change []float64, pairs, wins int) string {
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	lower := m.Better == "lower"
	improved := (lower && cm < pm) || (!lower && cm > pm)
	worseBy := (cm - pm) / pm
	if !lower {
		worseBy = -worseBy
	}
	bound := m.Bound
	if (q3-q1)/math.Abs(pm) > bound {
		if separated(parent, change, lower) {
			return "better (every run)"
		}
		return "unresolved (spread > bound)"
	}
	switch {
	case improved && pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > q3-q1:
		return "better"
	case worseBy > bound:
		return "WORSE"
	}
	return "no change"
}

// separated reports whether every change value beats every parent value.
func separated(parent, change []float64, lower bool) bool {
	for _, p := range parent {
		for _, c := range change {
			if (lower && c >= p) || (!lower && c <= p) {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// pairWins pairs runs by seed (in order of appearance) and counts the
// pairs the change wins; ties count for neither side.
func pairWins(parent, change []float64, ps, cs []int64, lower bool) (pairs, wins int) {
	used := make([]bool, len(change))
	for i, p := range parent {
		for j, c := range change {
			if used[j] || cs[j] != ps[i] {
				continue
			}
			used[j] = true
			pairs++
			if (lower && c < p) || (!lower && c > p) {
				wins++
			}
			break
		}
	}
	return pairs, wins
}

// compareMain lines up two result sets (parent and change) per workload
// and metric and prints the verdicts, then the traced per-layer diff.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var root string
	rootFlag(fs, &root)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-root DIR] PARENT CHANGE")
		return 2
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []*record
		if change, err = readRecords(fs.Arg(1)); err == nil {
			printComparison(sp, parent, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 1
}

func printComparison(sp *spec, parent, change []*record) {
	wls := map[string]bool{}
	for _, r := range append(append([]*record(nil), parent...), change...) {
		wls[r.Workload] = true
	}
	for _, wl := range sortedKeys(wls) {
		fmt.Printf("== %s\n", wl)
		fmt.Printf("  %-18s %-5s %12s %12s %12s %8s %12s %12s %12s %7s  %s\n", "metric", "unit",
			"parent p50", "parent q1", "parent q3", "spread", "change p50", "change q1", "change q3", "won", "verdict")
		for _, m := range sp.EndToEnd {
			pv, ps := series(parent, wl, false, m.Name)
			cv, cs := series(change, wl, false, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Printf("  %-18s missing runs (parent %d, change %d)\n", m.Name, len(pv), len(cv))
				continue
			}
			pairs, wins := pairWins(pv, cv, ps, cs, m.Better == "lower")
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			spread := fmt.Sprintf("%.1f%%", (pq3-pq1)/math.Abs(median(pv))*100)
			fmt.Printf("  %-18s %-5s %12.5g %12.5g %12.5g %8s %12.5g %12.5g %12.5g %3d/%-3d  %s\n", m.Name, m.Unit,
				median(pv), pq1, pq3, spread, median(cv), cq1, cq3, wins, pairs, verdict(m, pv, cv, pairs, wins))
		}
		printLayerDiff(sp, parent, change, wl)
	}
}

// printLayerDiff prints the traced per-layer medians of both sides.
func printLayerDiff(sp *spec, parent, change []*record, wl string) {
	var rows []string
	for _, m := range sp.PerLayer {
		pv, _ := series(parent, wl, true, m.Name)
		cv, _ := series(change, wl, true, m.Name)
		if len(pv) == 0 || len(cv) == 0 {
			continue
		}
		p, c := median(pv), median(cv)
		delta := "-"
		if p != 0 {
			delta = fmt.Sprintf("%+.1f%%", (c/p-1)*100)
		}
		rows = append(rows, fmt.Sprintf("    %-26s %-6s %14.6g %14.6g %9s", m.Name, m.Unit, p, c, delta))
	}
	if len(rows) == 0 {
		fmt.Println("  (no traced runs on both sides)")
		return
	}
	sort.Strings(rows)
	fmt.Printf("  traced per-layer medians\n    %-26s %-6s %14s %14s %9s\n", "metric", "unit", "parent", "change", "delta")
	for _, r := range rows {
		fmt.Println(r)
	}
}
