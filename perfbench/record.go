package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fidelity is stated in every record: the figures are host time and
// memory of this reproduction, never a claim about the paper's numbers.
const fidelity = "The power model runs on synthetic ISCAS89 stand-ins and is " +
	"unvalidated against the paper's absolute numbers (EXPERIMENTS.md), so no " +
	"error figure is given. Every speed-up is host time; the simulated Table I " +
	"statistics are checked unchanged against the committed goldens."

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance pins what was measured and where.
type provenance struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
}

// record is the full document of one run: the result line plus
// provenance, sample counts, derived figures, per-circuit breakdowns and
// the first correctness failures.
type record struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	Fidelity   string     `json:"fidelity"`
	// Samples counts what each figure was computed from (jobs timed,
	// set-ups, Table I runs, latency samples beyond p90, ...).
	Samples map[string]int `json:"samples"`
	// Derived are figures printed beside the metrics that BENCHMARK.json
	// does not declare (table1_s, error_rate, ...).
	Derived map[string]float64 `json:"derived"`
	// Sources names where each per-layer figure was measured.
	Sources map[string]string `json:"sources,omitempty"`
	// Extrapolated lists the per-layer figures that were not measured in
	// the timed program but estimated from a replay of the same work.
	Extrapolated []string `json:"extrapolated,omitempty"`
	// Circuits holds the per-circuit layer breakdown of a traced run.
	Circuits map[string]map[string]float64 `json:"circuits,omitempty"`
	// Failures lists the first correctness failures, if any.
	Failures []string `json:"failures,omitempty"`
	Result   result   `json:"result"`
}

func newRecord(o options) *record {
	return &record{
		Schema:   "perfbench/record/v1",
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Traced:   o.trace,
		Fidelity: fidelity,
		Samples:  map[string]int{},
		Derived:  map[string]float64{},
		Result:   result{Metrics: map[string]metric{}},
	}
}

// set records one metric.
func (r *record) set(name, unit string, v float64) {
	r.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation; a non-empty failure marks it failed
// and keeps the first few messages.
func (r *record) op(failure string) {
	r.Result.Attempted++
	if failure == "" {
		return
	}
	r.Result.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, failure)
	}
}

// finish checks the reported metrics against the declared set: exactly
// the end-to-end metrics untraced, exactly the per-layer ones traced,
// each with its declared unit.
func (r *record) finish(s *spec, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := r.Result.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	for name := range r.Result.Metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if r.Result.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	r.Derived["error_rate"] = float64(r.Result.Failed) / float64(r.Result.Attempted)
	r.Result.Correct = r.Result.Failed == 0
	return nil
}

// printHuman writes every metric by name with its unit.
func (r *record) printHuman(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(bw, "perfbench %s seed=%d seconds=%g %s\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, k := range sortedKeys(r.Result.Metrics) {
		m := r.Result.Metrics[k]
		fmt.Fprintf(bw, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Derived) {
		fmt.Fprintf(bw, "  %-28s %14.6g (derived)\n", k, r.Derived[k])
	}
	fmt.Fprintf(bw, "  attempted=%d failed=%d correct=%v samples=%v\n",
		r.Result.Attempted, r.Result.Failed, r.Result.Failed == 0, r.Samples)
	if len(r.Extrapolated) > 0 {
		fmt.Fprintf(bw, "  extrapolated, not measured: %s\n", strings.Join(r.Extrapolated, ", "))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(bw, "  FAIL %s\n", f)
	}
}

func collectProvenance(root string) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	// Only a repository rooted at root names the measured commit; a
	// checkout nested in some other repository does not.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		lines := strings.Fields(string(out))
		abs, _ := filepath.Abs(root)
		if resolved, err := filepath.EvalSymlinks(abs); err == nil {
			abs = resolved
		}
		if len(lines) == 2 && filepath.Clean(lines[0]) == abs {
			p.Commit = lines[1]
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	p.SourceHash = sourceHash(root)
	return p
}

// sourceHash digests the program's Go sources and module file (the
// benchmark's own directory and build outputs excluded), so a record
// identifies the code it measured even in a checkout without git.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a process.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// quantile is the linearly interpolated q-quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads compare and the benchmark's own checks agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ms converts seconds of float wall time to milliseconds.
func ms(sec float64) float64 { return sec * 1e3 }
