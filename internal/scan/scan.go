// Package scan models full-scan test application: the scan chain threaded
// through every flip-flop, the shift/capture protocol of test-per-scan
// schemes, and the behaviour of the combinational inputs during shifting
// under the three structures compared in the paper:
//
//   - traditional scan: every pseudo-input follows the moving chain
//     contents; primary inputs hold the test's PI bits;
//   - input control (Huang & Lee): as traditional, but the primary inputs
//     hold a computed transition-blocking pattern during shifting;
//   - the proposed structure: additionally, the pseudo-inputs that
//     received a scan-mode MUX are frozen at chosen constants while the
//     chain shifts behind them (select line = Shift Enable).
package scan

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Pattern is one scan test: the primary-input bits applied at capture (and
// held during shift under traditional scan) and the state to be loaded
// into the flip-flops, indexed in netlist FF order.
type Pattern struct {
	PI    []bool
	State []bool
}

// Chain is a scan chain over every flip-flop of a circuit.
type Chain struct {
	c *netlist.Circuit
	// Order[p] is the FF index at chain position p; position 0 is nearest
	// the scan input, position len-1 drives the scan output.
	Order []int
	pos   []int // pos[ffIndex] = chain position
}

// New threads a chain through the flops in netlist order.
func New(c *netlist.Circuit) *Chain {
	order := make([]int, c.NumFFs())
	for i := range order {
		order[i] = i
	}
	ch, _ := NewWithOrder(c, order)
	return ch
}

// NewWithOrder threads the chain in the given FF order (a permutation of
// 0..NumFFs-1).
func NewWithOrder(c *netlist.Circuit, order []int) (*Chain, error) {
	if len(order) != c.NumFFs() {
		return nil, fmt.Errorf("scan: order has %d entries for %d flops", len(order), c.NumFFs())
	}
	pos := make([]int, len(order))
	for i := range pos {
		pos[i] = -1
	}
	for p, ff := range order {
		if ff < 0 || ff >= len(order) || pos[ff] != -1 {
			return nil, fmt.Errorf("scan: order is not a permutation (entry %d = %d)", p, ff)
		}
		pos[ff] = p
	}
	return &Chain{c: c, Order: append([]int(nil), order...), pos: pos}, nil
}

// Circuit returns the underlying circuit.
func (ch *Chain) Circuit() *netlist.Circuit { return ch.c }

// Length returns the number of scan cells.
func (ch *Chain) Length() int { return len(ch.Order) }

// PositionOf returns the chain position of flop ff.
func (ch *Chain) PositionOf(ff int) int { return ch.pos[ff] }

// ShiftConfig describes how the combinational inputs behave while the
// chain shifts.
type ShiftConfig struct {
	// PIHold[i] is the value held on primary input i during shifting;
	// logic.X means "hold the current pattern's PI bit" (traditional ATE
	// behaviour).
	PIHold []logic.Value
	// Muxed[f] reports whether flop f's output has a scan-mode MUX; if so
	// MuxVal[f] is the constant seen by the combinational logic during
	// shifting.
	Muxed  []bool
	MuxVal []bool
}

// Traditional returns the plain scan structure for circuit c: no MUXes,
// PIs hold the pattern bits.
func Traditional(c *netlist.Circuit) ShiftConfig {
	return ShiftConfig{
		PIHold: make([]logic.Value, len(c.PIs)), // all X
		Muxed:  make([]bool, c.NumFFs()),
		MuxVal: make([]bool, c.NumFFs()),
	}
}

// Validate checks cfg against circuit c.
func (cfg *ShiftConfig) Validate(c *netlist.Circuit) error {
	if len(cfg.PIHold) != len(c.PIs) {
		return fmt.Errorf("scan: PIHold has %d entries for %d PIs", len(cfg.PIHold), len(c.PIs))
	}
	if len(cfg.Muxed) != c.NumFFs() || len(cfg.MuxVal) != c.NumFFs() {
		return fmt.Errorf("scan: Muxed/MuxVal sized %d/%d for %d flops",
			len(cfg.Muxed), len(cfg.MuxVal), c.NumFFs())
	}
	return nil
}

// MuxCount returns the number of multiplexed flops.
func (cfg *ShiftConfig) MuxCount() int {
	n := 0
	for _, m := range cfg.Muxed {
		if m {
			n++
		}
	}
	return n
}

// Hooks receive the simulation events of Run. Either hook may be nil.
type Hooks struct {
	// ShiftCycle is called once per shift clock with the combinational
	// input values seen by the logic during that cycle: pi in PI order,
	// ppi in FF order (already accounting for MUX freezing). The slices
	// are reused across calls; copy to retain.
	ShiftCycle func(pi, ppi []bool)
	// Capture is called at each capture clock with the inputs applied
	// (pattern PI bits, fully loaded state). It must return the
	// next-state response of the combinational logic in FF order (the
	// simulator's job); Run loads it into the chain so the following
	// shift-out carries realistic response data.
	Capture func(pi, ppi []bool) []bool
	// Stop, when non-nil, is consulted before each pattern; a non-nil
	// return aborts Run with that error. Power measurement wires a
	// context's Err here so long runs stay cancellable.
	Stop func() error
}

// Run applies the patterns through the chain: for each pattern, Length()
// shift cycles (during which the previous response shifts out as the new
// state shifts in) followed by one capture; after the last pattern the
// final response is flushed out with zero fill. The initial chain content
// is all zeros.
//
// Run reports, via hooks, exactly what the combinational logic sees each
// cycle; it performs no power accounting itself.
func (ch *Chain) Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error {
	return run(ch.c, [][]int{ch.Order}, patterns, cfg, hooks)
}

// run is the shared bool scan loop over chains groups (groups[k][p] is
// the flop at position p of chain k). All chains shift simultaneously for
// L cycles per pattern, L the longest chain; a shorter chain receives
// leading zero pad bits, so every chain finishes loading on the same
// cycle.
func run(c *netlist.Circuit, groups [][]int, patterns []Pattern, cfg ShiftConfig, hooks Hooks) error {
	if err := checkRun(c, patterns, cfg); err != nil {
		return err
	}
	nFF := c.NumFFs()
	L := 0
	// content[k][p] = bit at position p of chain k; flop f lives at
	// content[chain[f]][pos[f]].
	content := make([][]bool, len(groups))
	chain := make([]int, nFF)
	pos := make([]int, nFF)
	for k, g := range groups {
		L = max(L, len(g))
		content[k] = make([]bool, len(g))
		for p, f := range g {
			chain[f], pos[f] = k, p
		}
	}
	piVals := make([]bool, len(c.PIs))
	ppiVals := make([]bool, nFF)
	inBits := make([]bool, len(groups))

	emit := func(patPI []bool) {
		if hooks.ShiftCycle == nil {
			return
		}
		for i := range piVals {
			switch cfg.PIHold[i] {
			case logic.Zero:
				piVals[i] = false
			case logic.One:
				piVals[i] = true
			default:
				piVals[i] = patPI[i]
			}
		}
		for f := 0; f < nFF; f++ {
			if cfg.Muxed[f] {
				ppiVals[f] = cfg.MuxVal[f]
			} else {
				ppiVals[f] = content[chain[f]][pos[f]]
			}
		}
		hooks.ShiftCycle(piVals, ppiVals)
	}
	shiftOne := func() {
		for k, ck := range content {
			for p := len(ck) - 1; p > 0; p-- {
				ck[p] = ck[p-1]
			}
			if len(ck) > 0 {
				ck[0] = inBits[k]
			}
		}
	}

	for _, pat := range patterns {
		if hooks.Stop != nil {
			if err := hooks.Stop(); err != nil {
				return err
			}
		}
		// Shift in the new state (old content — previous response —
		// shifts out). Chain k's bit for position lk-1-q enters at shift
		// lead+q, after lead = L-lk pad bits.
		for t := 0; t < L; t++ {
			for k, g := range groups {
				lk := len(g)
				if lead := L - lk; t < lead {
					inBits[k] = false
				} else {
					inBits[k] = pat.State[g[lk-1-(t-lead)]]
				}
			}
			shiftOne()
			emit(pat.PI)
		}
		if hooks.Capture != nil {
			for f := 0; f < nFF; f++ {
				ppiVals[f] = content[chain[f]][pos[f]]
			}
			resp := hooks.Capture(pat.PI, ppiVals)
			if len(resp) != nFF {
				return fmt.Errorf("scan: capture hook returned %d bits for %d flops",
					len(resp), nFF)
			}
			for f, v := range resp {
				content[chain[f]][pos[f]] = v
			}
		}
	}
	// Flush the last response; the tester keeps the last pattern's PI
	// values applied while zeros fill the chains.
	if len(patterns) > 0 {
		lastPI := patterns[len(patterns)-1].PI
		clear(inBits)
		for t := 0; t < L; t++ {
			shiftOne()
			emit(lastPI)
		}
	}
	return nil
}
