// Command perfbench is the end-to-end and per-layer benchmark of the
// scanpower reproduction. It runs one workload per invocation against the
// unchanged program and prints, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Workloads:
//
//	table1        the twelve-circuit Table I on a fresh Engine (Workers = 1)
//	sweep         scanpowerd jobs on s1423, each with its own activity profile
//	cold-designs  scanpowerd jobs on inline .bench sources under fresh names
//
// With -trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
// with -trace 1 a separate traced run reports the per-layer figures. The
// benchmark measures from outside the program: it times calls into each
// layer's exported functions and reads the callbacks and metrics the
// program already exposes.
//
// Run it through run.sh from the repository root, which builds this
// driver and scanpowerd from source first:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh all --seed 1 --seconds 30   # the three workloads in turn
//	bash perfbench/run.sh compare parent.out change.out
//	bash perfbench/run.sh selftest
//	bash perfbench/run.sh golden     # rewrite perfbench/golden/*.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// driverStart is the first instant of the process; set-up time counts
// from here.
var driverStart = time.Now()

// options are the command-line settings of one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (the checkout)
	daemon   string // scanpowerd binary
	maxJobs  int    // service workloads: stop after this many jobs (0 = window only; set by selftest)
}

// workloadFunc runs one workload and fills the record.
type workloadFunc func(ctx context.Context, o options, rec *record) error

var workloads = map[string]workloadFunc{
	"table1":       runTable1,
	"sweep":        runSweep,
	"cold-designs": runColdDesigns,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "selftest":
			os.Exit(selftestMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		case "all":
			os.Exit(allMain(os.Args[2:]))
		}
	}
	var o options
	var traceN int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: table1, sweep or cold-designs")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting the per-layer metrics")
	rootFlag(fs, &o.root)
	daemonFlag(fs, &o.daemon)
	fs.Parse(os.Args[1:])
	o.trace = traceN != 0

	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs o.workload and returns the result line; the full
// record is printed on the line before it, where compare finds it.
func runWorkload(o options) (*result, error) {
	run, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want table1, sweep or cold-designs)", o.workload)
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	rec := newRecord(o)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := run(ctx, o, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rec.Provenance = collectProvenance(o.root)
	if err := rec.finish(spec, o.trace); err != nil {
		return nil, err
	}
	rec.printHuman(os.Stderr)
	raw, err := json.Marshal(map[string]*record{"perfbench_record": rec})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(raw))
	return &rec.Result, nil
}

// allMain runs every workload in turn, each in its own process with the
// given flags, and fails if any run fails or mismatches its golden.
func allMain(args []string) int {
	code := 0
	for _, wl := range []string{"table1", "sweep", "cold-designs"} {
		cmd := exec.Command(os.Args[0], append([]string{"--workload", wl}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl, err)
			code = 1
		}
	}
	return code
}

// spec is the part of BENCHMARK.json the driver checks its output
// against: every declared metric must be reported, with its unit.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// rootFlag registers the -root flag every mode accepts.
func rootFlag(fs *flag.FlagSet, root *string) {
	fs.StringVar(root, "root", ".", "repository root")
}

// daemonFlag registers the -daemon flag of the modes that run workloads.
func daemonFlag(fs *flag.FlagSet, daemon *string) {
	fs.StringVar(daemon, "daemon", "", "scanpowerd binary (service workloads)")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
