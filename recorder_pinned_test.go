package scanpower

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/recorder_pinned.txt")

// recorderLines runs names on an Engine with one worker through a
// Recorder and renders everything a reader of its output depends on as
// sorted text lines:
//
//   - every registry series with its value, except the wall-time sums of
//     the seconds histograms (their _count series are kept);
//   - every span: name, parent span name, attribute names, and the
//     deterministic attribute values (stage, kind, patterns, backtracks,
//     cache_hit, failed, stages, circuits), with the count of such spans
//     and their summed lanes.
func recorderLines(t *testing.T, cfg Config, names []string) []string {
	t.Helper()
	reg := telemetry.NewRegistry()
	var trace bytes.Buffer
	rec := NewRecorder(reg, telemetry.NewTraceWriter(&trace))
	eng := NewEngine(cfg)
	eng.Workers = 1
	eng.Hooks = rec.Hooks()
	if _, err := eng.RunAll(context.Background(), names); err != nil {
		t.Fatal(err)
	}
	rec.Close()

	var lines []string
	for k, v := range reg.Snapshot() {
		family, _, _ := strings.Cut(k, "{")
		if strings.HasSuffix(family, "_seconds_sum") {
			lines = append(lines, "metric "+k)
			continue
		}
		lines = append(lines, fmt.Sprintf("metric %s = %g", k, v))
	}

	spanNames := map[int64]string{}
	count := map[string]int{}
	lanes := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	for sc.Scan() {
		var ev telemetry.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %v", err)
		}
		if ev.Ev == "start" {
			spanNames[ev.ID] = ev.Name
		}
		parent := spanNames[ev.Parent]
		if ev.Ev == "end" {
			parent = "" // end events carry no parent; the start line has it
		}
		var attrs []string
		for k, v := range ev.Attrs {
			switch k {
			case "lanes", "start", "faults":
				attrs = append(attrs, k)
			default:
				attrs = append(attrs, fmt.Sprintf("%s=%v", k, v))
			}
		}
		sort.Strings(attrs)
		key := fmt.Sprintf("span %s %s parent=%s attrs=[%s]", ev.Ev, ev.Name, parent, strings.Join(attrs, " "))
		count[key]++
		if l, ok := ev.Attrs["lanes"].(float64); ok {
			lanes[key] += l
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key, n := range count {
		line := fmt.Sprintf("%s x%d", key, n)
		if l, ok := lanes[key]; ok {
			line += fmt.Sprintf(" lanes=%g", l)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

// pinnedRecorderOutput is the fixed run TestRecorderPinnedOutput pins:
// s344 and s382 under DefaultConfig.
func pinnedRecorderOutput(t *testing.T) string {
	lines := recorderLines(t, DefaultConfig(), []string{"s344", "s382"})
	return strings.Join(lines, "\n") + "\n"
}

// TestRecorderPinnedOutput pins the Recorder's observable output — the
// metric families and label sets the benchmark driver and the smoke
// scripts read, their deterministic values, and the span names and
// attributes of the trace — against testdata/recorder_pinned.txt, so a
// change to the event plumbing cannot silently rename or drop one.
// Regenerate intentionally with: go test . -run TestRecorderPinnedOutput -update
func TestRecorderPinnedOutput(t *testing.T) {
	got := pinnedRecorderOutput(t)
	const path = "testdata/recorder_pinned.txt"
	if *updatePinned {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Recorder output drifted from %s (-update to accept):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
