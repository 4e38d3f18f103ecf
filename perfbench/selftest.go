package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"
)

// workCounters must repeat exactly between traced runs at one seed.
var workCounters = []string{"atpg.backtracks", "atpg.patterns", "power.gate_evals",
	"core.justify_attempts", "engine.cache_hits"}

// The self-test's seeds: selftestSeed is the one every check repeats, heldOutSeed
// the held-out seed for later claims. Each traced service run times
// selftestJobs jobs.
const (
	selftestSeed = 1
	heldOutSeed  = 2
	selftestJobs = 8
)

// selftestMain checks the benchmark itself:
//
//   - two traced runs at one seed give identical work counters, on
//     table1 and on both service workloads (fixed job counts);
//   - a second seed changes the service job order and activity profiles
//     but not table1's counters. The second seed is the held-out seed for
//     later claims.
func selftestMain(args []string) int {
	fs := flag.NewFlagSet("selftest", flag.ExitOnError)
	var root, daemon string
	rootFlag(fs, &root)
	daemonFlag(fs, &daemon)
	fs.Parse(args)

	failed := 0
	check := func(ok bool, format string, a ...any) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, a...))
	}
	traced := func(workload string, s int64) map[string]float64 {
		o := options{workload: workload, seed: s, seconds: 120, trace: true, root: root,
			daemon: daemon, maxJobs: selftestJobs}
		if workload == "table1" {
			o.seconds = 0 // one Engine run and one replay
		}
		rec := newRecord(o)
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		defer cancel()
		if err := workloads[workload](ctx, o, rec); err != nil {
			check(false, "%s seed %d: %v", workload, s, err)
			return nil
		}
		check(rec.Result.Failed == 0, "%s seed %d: %d operations, %d failed %v",
			workload, s, rec.Result.Attempted, rec.Result.Failed, rec.Failures)
		out := map[string]float64{}
		for _, k := range workCounters {
			out[k] = rec.Result.Metrics[k].Value
		}
		return out
	}

	for _, wl := range []string{"table1", "sweep", "cold-designs"} {
		a, b := traced(wl, selftestSeed), traced(wl, selftestSeed)
		check(a != nil && reflect.DeepEqual(a, b), "%s: work counters repeat at seed %d: %v vs %v", wl, selftestSeed, a, b)
		if wl == "table1" {
			c := traced(wl, heldOutSeed)
			check(a != nil && reflect.DeepEqual(a, c), "table1: counters at held-out seed %d equal seed %d: %v", heldOutSeed, selftestSeed, c)
		}
		if wl == "sweep" && a != nil {
			check(a["engine.cache_hits"] == float64(selftestJobs), "sweep: every job hits the ATPG cache (%v of %d)", a["engine.cache_hits"], selftestJobs)
		}
		if wl == "cold-designs" && a != nil {
			check(a["engine.cache_hits"] == 0, "cold-designs: no job hits the ATPG cache (%v)", a["engine.cache_hits"])
		}
	}

	check(!reflect.DeepEqual(table1Names(selftestSeed), table1Names(heldOutSeed)), "table1: seeds %d and %d order the circuits differently", selftestSeed, heldOutSeed)
	inputs := []string{"a", "b", "c"}
	s1, s2 := sweepGen(selftestSeed, inputs), sweepGen(heldOutSeed, inputs)
	check(!reflect.DeepEqual(s1(0).req.Activity, s2(0).req.Activity), "sweep: seeds draw different activity profiles")
	srcs := map[string]string{}
	c1, c2 := coldGen(selftestSeed, srcs), coldGen(heldOutSeed, srcs)
	var o1, o2 []string
	for i := 0; i < len(coldCircuits); i++ {
		o1, o2 = append(o1, c1(i).circuit), append(o2, c2(i).circuit)
	}
	check(!reflect.DeepEqual(o1, o2), "cold-designs: seeds order the jobs differently: %v vs %v", o1, o2)

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "selftest: %d check(s) failed\n", failed)
		return 1
	}
	return 0
}
