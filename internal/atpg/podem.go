package atpg

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/testability"
)

// podemStatus is the outcome of one deterministic test-generation run.
type podemStatus int

const (
	podemSuccess podemStatus = iota
	// podemUntestable: the search space was exhausted — the fault is
	// redundant (no test exists).
	podemUntestable
	// podemAborted: the backtrack limit was hit before a conclusion.
	podemAborted
)

// podemEnv is the per-circuit state shared by every podem engine: the
// decision-input enumeration, topological gate ranks (for canonical
// D-frontier selection), the observed-net set, and the optional SCOAP
// guidance. It is built once per generation instead of once per fault,
// and is read-only after construction, so one env can back both the
// incremental engine and its full-mode reference.
type podemEnv struct {
	c      *netlist.Circuit
	inputs []netlist.NetID
	inIdx  map[netlist.NetID]int
	// topoIdx ranks each gate by its position in c.Topo(); the D-frontier
	// gate with the smallest rank is the canonical objective choice.
	topoIdx []int32
	// observed marks nets where a good/faulty difference is a detection:
	// primary outputs and flop D inputs.
	observed []bool
	// scoap, when non-nil, steers backtrace toward the cheapest
	// controllability choices.
	scoap         *testability.Analysis
	maxBacktracks int
}

func newPodemEnv(c *netlist.Circuit, scoap *testability.Analysis, maxBacktracks int) *podemEnv {
	inputs := c.CombInputs()
	idx := make(map[netlist.NetID]int, len(inputs))
	for i, n := range inputs {
		idx[n] = i
	}
	topoIdx := make([]int32, c.NumGates())
	for i, gi := range c.Topo() {
		topoIdx[gi] = int32(i)
	}
	observed := make([]bool, c.NumNets())
	for ni := range c.Nets {
		n := &c.Nets[ni]
		observed[ni] = n.IsPO() || len(n.FanoutFF) > 0
	}
	return &podemEnv{
		c:             c,
		inputs:        inputs,
		inIdx:         idx,
		topoIdx:       topoIdx,
		observed:      observed,
		scoap:         scoap,
		maxBacktracks: maxBacktracks,
	}
}

// podem implements the PODEM algorithm with the (good, faulty) pair
// representation of the D-calculus: each net carries two three-valued
// levels; D corresponds to (1,0) and D' to (0,1). Decisions are made only
// at the combinational inputs (PIs and scan-cell outputs), which is what
// makes PODEM's backtracking complete.
//
// The default engine implies incrementally: each decision (or flip, or
// undo) propagates event-driven through level buckets from the changed
// input only, and the D-frontier is tracked as a difference set instead
// of rescanned — the same technique FaultSim uses. The full mode
// re-implies the whole circuit on every step; it exists as the reference
// the incremental engine is differentially tested (and benchmarked)
// against, and both modes visit identical search states.
type podem struct {
	env   *podemEnv
	fault Fault
	// full selects the reference engine: whole-circuit re-implication per
	// decision and a full-topo D-frontier scan per objective.
	full bool

	goodV  []logic.Value
	faultV []logic.Value
	assign []logic.Value // per input, current decision values
	stack  []podemDecision
	inBufG []logic.Value
	inBufF []logic.Value

	// Incremental-engine state (unused in full mode): a level-bucketed
	// event queue over changed nets, and the set of nets carrying a binary
	// good/faulty difference with lazy cleanup.
	buckets  [][]netlist.GateID
	gstamp   []uint32
	epoch    uint32
	diffList []netlist.NetID
	diffMark []bool // net currently carries a binary difference
	inList   []bool // net is present in diffList
	// obsDiff counts observed nets currently carrying a difference, so
	// detection is a counter check instead of a PO/FF scan.
	obsDiff int

	// backtracks is the number of decision flips the last run performed.
	backtracks int
}

type podemDecision struct {
	input   int
	value   logic.Value
	flipped bool
}

// newPodem builds an engine bound to env; one engine is reused across
// faults via run(f), so the per-net arrays are allocated once per
// generation rather than once per fault.
func (env *podemEnv) newPodem(full bool) *podem {
	c := env.c
	return &podem{
		env:      env,
		full:     full,
		goodV:    make([]logic.Value, c.NumNets()),
		faultV:   make([]logic.Value, c.NumNets()),
		assign:   make([]logic.Value, len(env.inputs)),
		inBufG:   make([]logic.Value, 0, 8),
		inBufF:   make([]logic.Value, 0, 8),
		buckets:  make([][]netlist.GateID, c.Depth()+1),
		gstamp:   make([]uint32, c.NumGates()),
		diffMark: make([]bool, c.NumNets()),
		inList:   make([]bool, c.NumNets()),
	}
}

// reset rebinds the engine to fault f and restores the all-X state. For
// the incremental engine this is the one full evaluation pass per run;
// every later imply is event-driven from the nets a decision changes.
func (p *podem) reset(f Fault) {
	p.fault = f
	p.backtracks = 0
	p.stack = p.stack[:0]
	for i := range p.assign {
		p.assign[i] = logic.X
	}
	if p.full {
		return
	}
	for i := range p.goodV {
		p.goodV[i] = logic.X
		p.faultV[i] = logic.X
	}
	c := p.env.c
	stuck := logic.FromBool(f.Stuck)
	p.faultV[f.Net] = stuck
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		p.inBufG = p.inBufG[:0]
		p.inBufF = p.inBufF[:0]
		for _, in := range g.Inputs {
			p.inBufG = append(p.inBufG, p.goodV[in])
			p.inBufF = append(p.inBufF, p.faultV[in])
		}
		p.goodV[g.Output] = logic.Eval(g.Type, p.inBufG)
		if g.Output == f.Net {
			p.faultV[g.Output] = stuck
		} else {
			p.faultV[g.Output] = logic.Eval(g.Type, p.inBufF)
		}
	}
	for _, n := range p.diffList {
		p.inList[n] = false
	}
	p.diffList = p.diffList[:0]
	p.obsDiff = 0
	for ni := range p.diffMark {
		p.diffMark[ni] = false
	}
	for ni := range p.goodV {
		p.noteNet(netlist.NetID(ni))
	}
	for i := range p.buckets {
		p.buckets[i] = p.buckets[i][:0]
	}
	p.bumpEpoch()
}

// noteNet refreshes net n's membership in the difference set after its
// good or faulty value changed.
func (p *podem) noteNet(n netlist.NetID) {
	d := diffBinary(p.goodV[n], p.faultV[n])
	if d == p.diffMark[n] {
		return
	}
	p.diffMark[n] = d
	if p.env.observed[n] {
		if d {
			p.obsDiff++
		} else {
			p.obsDiff--
		}
	}
	if d && !p.inList[n] {
		p.inList[n] = true
		p.diffList = append(p.diffList, n)
	}
}

func (p *podem) bumpEpoch() {
	p.epoch++
	if p.epoch == 0 {
		for i := range p.gstamp {
			p.gstamp[i] = 0
		}
		p.epoch = 1
	}
}

func (p *podem) scheduleFanout(n netlist.NetID) {
	c := p.env.c
	for _, g := range c.Nets[n].Fanout {
		if p.gstamp[g] != p.epoch {
			p.gstamp[g] = p.epoch
			p.buckets[c.Level(g)] = append(p.buckets[c.Level(g)], g)
		}
	}
}

// assignInput records a decision value (or its undo, v == X) and, in
// incremental mode, applies it to both circuit copies and queues the
// fanout for the next propagation.
func (p *podem) assignInput(i int, v logic.Value) {
	p.assign[i] = v
	if p.full {
		return
	}
	n := p.env.inputs[i]
	changed := false
	if p.goodV[n] != v {
		p.goodV[n] = v
		changed = true
	}
	if n != p.fault.Net && p.faultV[n] != v {
		p.faultV[n] = v
		changed = true
	}
	if changed {
		p.noteNet(n)
		p.scheduleFanout(n)
	}
}

// imply forward-simulates both the good and the faulty circuit from the
// current input assignment: a whole-cone pass in full mode, an
// event-driven drain of the queued input changes otherwise. The fault net
// is forced to the stuck value in the faulty circuit.
func (p *podem) imply() {
	if p.full {
		p.implyFull()
		return
	}
	c := p.env.c
	f := p.fault.Net
	for lvl := 0; lvl < len(p.buckets); lvl++ {
		for qi := 0; qi < len(p.buckets[lvl]); qi++ {
			gi := p.buckets[lvl][qi]
			g := &c.Gates[gi]
			p.inBufG = p.inBufG[:0]
			p.inBufF = p.inBufF[:0]
			for _, in := range g.Inputs {
				p.inBufG = append(p.inBufG, p.goodV[in])
				p.inBufF = append(p.inBufF, p.faultV[in])
			}
			out := g.Output
			changed := false
			if ng := logic.Eval(g.Type, p.inBufG); p.goodV[out] != ng {
				p.goodV[out] = ng
				changed = true
			}
			if out != f {
				if nf := logic.Eval(g.Type, p.inBufF); p.faultV[out] != nf {
					p.faultV[out] = nf
					changed = true
				}
			}
			if changed {
				p.noteNet(out)
				p.scheduleFanout(out)
			}
		}
	}
	for i := range p.buckets {
		p.buckets[i] = p.buckets[i][:0]
	}
	p.bumpEpoch()
}

func (p *podem) implyFull() {
	c := p.env.c
	for i, n := range p.env.inputs {
		p.goodV[n] = p.assign[i]
		p.faultV[n] = p.assign[i]
	}
	stuck := logic.FromBool(p.fault.Stuck)
	if _, isInput := p.env.inIdx[p.fault.Net]; isInput {
		p.faultV[p.fault.Net] = stuck
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		p.inBufG = p.inBufG[:0]
		p.inBufF = p.inBufF[:0]
		for _, in := range g.Inputs {
			p.inBufG = append(p.inBufG, p.goodV[in])
			p.inBufF = append(p.inBufF, p.faultV[in])
		}
		p.goodV[g.Output] = logic.Eval(g.Type, p.inBufG)
		if g.Output == p.fault.Net {
			p.faultV[g.Output] = stuck
		} else {
			p.faultV[g.Output] = logic.Eval(g.Type, p.inBufF)
		}
	}
}

// detected reports whether some observed net (PO or flop D input) carries
// a binary good/faulty difference.
func (p *podem) detected() bool {
	if !p.full {
		return p.obsDiff > 0
	}
	for _, po := range p.env.c.POs {
		if diffBinary(p.goodV[po], p.faultV[po]) {
			return true
		}
	}
	for _, ff := range p.env.c.FFs {
		if diffBinary(p.goodV[ff.D], p.faultV[ff.D]) {
			return true
		}
	}
	return false
}

func diffBinary(a, b logic.Value) bool {
	return a.IsBinary() && b.IsBinary() && a != b
}

// frontier returns the canonical D-frontier gate — the topologically
// first gate with a binary-difference input, an output that can still
// change, and an unassigned side input — or nil when the frontier is
// empty. The incremental engine enumerates candidates from the fanout of
// the live difference set, compacting dead entries as it goes; the result
// is the same gate the full-topo scan picks.
func (p *podem) frontier() *netlist.Gate {
	c := p.env.c
	live := p.diffList[:0]
	best := int32(-1)
	var bestG *netlist.Gate
	for _, n := range p.diffList {
		if !p.diffMark[n] {
			p.inList[n] = false
			continue
		}
		live = append(live, n)
		for _, gi := range c.Nets[n].Fanout {
			ti := p.env.topoIdx[gi]
			if best != -1 && ti >= best {
				continue
			}
			g := &c.Gates[gi]
			if p.goodV[g.Output] != logic.X && p.faultV[g.Output] != logic.X {
				continue
			}
			hasX := false
			for _, in := range g.Inputs {
				if p.goodV[in] == logic.X {
					hasX = true
					break
				}
			}
			if !hasX {
				continue
			}
			best, bestG = ti, g
		}
	}
	p.diffList = live
	return bestG
}

func (p *podem) frontierFull() *netlist.Gate {
	c := p.env.c
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		if p.goodV[g.Output] != logic.X && p.faultV[g.Output] != logic.X {
			continue
		}
		hasD := false
		for _, in := range g.Inputs {
			if diffBinary(p.goodV[in], p.faultV[in]) {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		hasX := false
		for _, in := range g.Inputs {
			if p.goodV[in] == logic.X {
				hasX = true
				break
			}
		}
		if !hasX {
			continue
		}
		return g
	}
	return nil
}

// objective returns the next (net, value) goal, or ok=false when the
// current partial assignment cannot lead to a detection (activation
// blocked or D-frontier empty).
func (p *podem) objective() (netlist.NetID, logic.Value, bool) {
	fv := p.goodV[p.fault.Net]
	want := logic.FromBool(!p.fault.Stuck)
	if fv == logic.X {
		return p.fault.Net, want, true
	}
	if fv != want {
		return 0, 0, false // activation conflict
	}
	// Fault activated: find a D-frontier gate — an input carries a binary
	// difference and the output can still change.
	var g *netlist.Gate
	if p.full {
		g = p.frontierFull()
	} else {
		g = p.frontier()
	}
	if g == nil {
		return 0, 0, false // D-frontier empty
	}
	// Objective: set an unassigned side input to the value that lets the
	// difference through (non-controlling where defined).
	for _, in := range g.Inputs {
		if p.goodV[in] == logic.X {
			v := logic.One
			if g.Type.HasControllingValue() {
				v = g.Type.NonControllingValue()
			} else if g.Type == logic.Mux2 && in == g.Inputs[2] {
				// Select line of a MUX: either side works; pick the side
				// carrying the difference.
				if diffBinary(p.goodV[g.Inputs[1]], p.faultV[g.Inputs[1]]) {
					v = logic.One
				} else {
					v = logic.Zero
				}
			}
			return in, v, true
		}
	}
	return 0, 0, false
}

// backtrace maps an internal objective to an input assignment by walking
// X-paths backwards through drivers.
func (p *podem) backtrace(n netlist.NetID, v logic.Value) (int, logic.Value) {
	c := p.env.c
	scoap := p.env.scoap
	for {
		if idx, ok := p.env.inIdx[n]; ok {
			return idx, v
		}
		g := &c.Gates[c.Nets[n].Driver]
		if g.Type.Inverting() {
			v = v.Not()
		}
		// Choose an input with X good value; one must exist because the
		// net itself is X (or we are tracing through binary nets toward
		// the fault site — then any X input works, and if none is X the
		// first input keeps the walk moving toward the inputs). With
		// SCOAP, prefer the X input whose controllability toward the
		// propagated value is cheapest.
		next := g.Inputs[0]
		bestCost := -1
		for _, in := range g.Inputs {
			if p.goodV[in] != logic.X {
				continue
			}
			if scoap == nil {
				next = in
				break
			}
			cost := scoap.Controllability(in, v == logic.One)
			if v == logic.X {
				cost = scoap.CC0[in]
				if scoap.CC1[in] < cost {
					cost = scoap.CC1[in]
				}
			}
			if bestCost == -1 || cost < bestCost {
				bestCost = cost
				next = in
			}
		}
		n = next
	}
}

// run executes the PODEM search for fault f. On success the input
// assignment (with X for untouched inputs) is left in p.assign.
func (p *podem) run(f Fault) podemStatus {
	p.reset(f)
	for {
		p.imply()
		if p.detected() {
			return podemSuccess
		}
		obj, val, ok := p.objective()
		if ok {
			in, v := p.backtrace(obj, val)
			if p.assign[in] != logic.X {
				// Backtrace landed on an assigned input (possible on
				// reconvergent paths): treat as conflict.
				ok = false
			} else {
				p.stack = append(p.stack, podemDecision{input: in, value: v})
				p.assignInput(in, v)
				continue
			}
		}
		// Conflict: flip the most recent unflipped decision.
		flipped := false
		for len(p.stack) > 0 {
			top := &p.stack[len(p.stack)-1]
			if !top.flipped {
				top.flipped = true
				top.value = top.value.Not()
				p.assignInput(top.input, top.value)
				flipped = true
				break
			}
			p.assignInput(top.input, logic.X)
			p.stack = p.stack[:len(p.stack)-1]
		}
		if !flipped {
			return podemUntestable
		}
		p.backtracks++
		if p.backtracks > p.env.maxBacktracks {
			return podemAborted
		}
	}
}
