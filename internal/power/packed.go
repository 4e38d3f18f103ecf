package power

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// MeasureScanPacked is MeasureScan on the bit-parallel simulator: the
// scan stream arrives as packed lane words straight from the chain's
// shift-register algebra (scan.Runner.RunPacked), opts.Lanes consecutive
// cycles per batch (default sim.WideLanes = 256), and the combinational
// core is evaluated once per batch over the compiled levelized program.
// Nothing is summed per cycle that a mean does not need:
//
//   - static power is per-gate, per-input-state occupancy counted by
//     popcounts (leakage.StateCounter), folded once as Σ count·table in
//     ascending (gate, state) order;
//   - mean dynamic power is a per-net toggle popcount, folded once as
//     Σ toggles·load in net order;
//   - only the peak is per cycle: each cycle's switched capacitance is
//     summed over its toggling nets in net order, and the largest kept.
//
// MeasureScan accounts the same way one cycle at a time, so the two
// Reports are bit-identical — not merely close, and at every supported
// lane width; unit and fuzz tests enforce it. This is the one production
// measurement kernel.
func MeasureScanPacked(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel) (Report, error) {
	return MeasureScanPackedOpts(ch, patterns, cfg, lm, cm, MeasureOptions{})
}

// MeasureScanPackedOpts is MeasureScanPacked with accounting options.
func MeasureScanPackedOpts(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel, opts MeasureOptions) (Report, error) {
	m, err := NewMeter(ch.Circuit(), lm, cm, opts.Lanes)
	if err != nil {
		return Report{}, err
	}
	return m.Measure(ch, patterns, cfg, opts)
}

// Meter is MeasureScanPacked bound to one netlist: the compiled program,
// the per-net loads and the counters, reused from one Measure call to
// the next. Build one per distinct netlist and measure every structure
// that shares the netlist with it. A Meter is not safe for concurrent
// use.
type Meter struct {
	c        *netlist.Circuit
	lm       *leakage.Model
	cm       CapModel
	lanes    int
	loads    []float64
	eval     func(pi, ppi []uint64) []uint64 // lanes-wide, ww words per net
	states   *leakage.StateCounter
	toggles  []int64   // per net, over the run
	prevBit  []uint64  // per net, last cycle of the previous batch (bit 0)
	cycDelta []float64 // per lane of a batch: switched capacitance
}

// NewMeter prepares the measurement kernel for the frozen circuit c at
// the given batch width (0 means sim.WideLanes; see sim.LaneWidths).
func NewMeter(c *netlist.Circuit, lm *leakage.Model, cm CapModel, lanes int) (*Meter, error) {
	lanes, err := sim.ResolveLanes(lanes)
	if err != nil {
		return nil, err
	}
	prog := sim.Compile(c)
	m := &Meter{
		c: c, lm: lm, cm: cm, lanes: lanes,
		loads:    cm.NetLoads(c),
		states:   leakage.NewStateCounter(c),
		toggles:  make([]int64, c.NumNets()),
		prevBit:  make([]uint64, c.NumNets()),
		cycDelta: make([]float64, lanes),
	}
	if lanes == sim.PackedLanes {
		m.eval = sim.NewPackedProgram(prog).Eval
	} else {
		m.eval = sim.NewWideProgram(prog).Eval
	}
	return m, nil
}

// Circuit returns the netlist the Meter was built for.
func (m *Meter) Circuit() *netlist.Circuit { return m.c }

// Measure runs the packed kernel on one structure. ch must thread a
// circuit with the Meter's netlist (the same circuit, or one with the
// same structure; see netlist.Circuit.SameStructure); opts.Lanes is
// ignored in favour of the Meter's width.
func (m *Meter) Measure(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	opts MeasureOptions) (Report, error) {

	if sc := ch.Circuit(); !m.c.SameStructure(sc) {
		return Report{}, fmt.Errorf("power: circuit %s is not the meter's netlist %s", sc.Name, m.c.Name)
	}
	m.states.Reset()
	clear(m.toggles)
	ww := m.lanes / 64
	primed := false // true once the first observed cycle has been consumed
	peak := 0.0

	shift := func(pi, ppi []uint64, n int) {
		start := time.Now()
		words := m.eval(pi, ppi)
		m.states.CountStatesPacked(words, ww, n)
		peak = max(peak, m.countToggles(words, ww, n, primed))
		primed = true
		if opts.OnBatch != nil {
			opts.OnBatch(n, time.Since(start))
		}
	}
	// The capture responses run through the same evaluator, one pattern
	// per lane; the shift accounting above has finished with its words.
	capture := func(pi, ppi, next []uint64) {
		vals := m.eval(pi, ppi)
		for i, ff := range m.c.FFs {
			copy(next[i*ww:(i+1)*ww], vals[int(ff.D)*ww:])
		}
	}
	h := scan.PackedHooks{Lanes: m.lanes, Shift: shift, Capture: capture,
		Pattern: opts.OnPattern, Stop: opts.stopHook()}
	if err := ch.RunPacked(patterns, cfg, h); err != nil {
		return Report{}, err
	}
	return finish(m.cm, m.lm, m.loads, m.toggles, peak, m.states.Resolve()), nil
}

// ToggleProfile returns, per net, the switched capacitance the last
// Measure accumulated (toggle count × load, fF) — the ranking signal
// peak-power test-point insertion uses to decide where forcing a constant
// buys the most.
func (m *Meter) ToggleProfile() []float64 {
	profile := make([]float64, len(m.toggles))
	for n, k := range m.toggles {
		profile[n] = float64(k) * m.loads[n]
	}
	return profile
}

// countToggles adds each net's transitions over the n lanes of a batch to
// the per-net toggle counts and returns the batch's largest per-cycle
// switched capacitance. A lane's transition compares it with the lane
// before, or for lane 0 with the previous batch's last cycle; the very
// first observed cycle only primes the comparison.
func (m *Meter) countToggles(words []uint64, ww, n int, primed bool) float64 {
	nw := (n + 63) >> 6
	last := ^uint64(0) >> uint(nw*64-n) // valid lanes of the last word
	cyc := m.cycDelta
	clear(cyc[:n])
	for ni, load := range m.loads {
		g := words[ni*ww : ni*ww+nw]
		carry := m.prevBit[ni]
		if !primed {
			carry = g[0] & 1 // lane 0 compares with itself: no transition
		}
		cnt := 0
		for k, w := range g {
			valid := ^uint64(0)
			if k == nw-1 {
				valid = last
			}
			w &= valid
			// Toggle word: bit t set iff the net differs between lane t
			// and lane t-1 (bit 0 compares against the previous word's
			// top lane, or across batches for k=0).
			tw := (w ^ (w<<1 | carry)) & valid
			carry = w >> 63
			if tw == 0 {
				continue
			}
			cnt += bits.OnesCount64(tw)
			cw := (*[64]float64)(cyc[k*64:])
			for ; tw != 0; tw &= tw - 1 {
				cw[bits.TrailingZeros64(tw)&63] += load
			}
		}
		m.toggles[ni] += int64(cnt)
		m.prevBit[ni] = g[nw-1] >> uint((n-1)&63) & 1
	}
	peak := 0.0
	for _, d := range cyc[:n] {
		peak = max(peak, d)
	}
	return peak
}
