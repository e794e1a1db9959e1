package scg

import (
	"math"
	"runtime"
	"sort"
	"time"

	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// Incremental re-solving.
//
// SolveKeep is Solve with the session state kept: the reduction trace,
// the cyclic core's block decomposition and every block's portfolio
// results survive in a SolveState.  ResolveState then solves an edited
// child problem by replaying the parent's reduction (ReplayReduce) and
// reusing, wholesale, every block whose rows the edit left untouched —
// a block's portfolio results are a pure function of (rows content,
// referenced costs, block index, options), so a positional content
// match makes reuse bit-exact, not approximate.
//
// The pipeline is pinned to the explicit-reduction path
// (DisableImplicit): the ZDD phase re-enumerates rows in canonical
// order, which destroys the row correspondence a delta carries.  On
// instances the implicit phase would shortcut anyway (dense-eligible
// cores) both paths run the same explicit reduction.

// SolveState is the retained state of a SolveKeep solve, the parent
// side of an incremental re-solve.  It is immutable once returned and
// safe to share: ResolveState only reads it.
type SolveState struct {
	problem   *matrix.Problem
	opt       Options // filled, implicit phase disabled
	red       *matrix.TrackedReduction
	trace     *matrix.ReduceTrace
	essential []int
	comps     []matrix.Component
	states    []*compState
	res       *Result
}

// Result returns the solve's result (the same value SolveKeep
// returned).
func (st *SolveState) Result() *Result { return st.res }

// Problem returns the instance the state solved.
func (st *SolveState) Problem() *matrix.Problem { return st.problem }

// ResolveOptions tunes an incremental re-solve.
type ResolveOptions struct {
	// WarmStart seeds the initial subgradient phase of re-solved
	// blocks with the parent's saved multipliers, mapped through the
	// delta's row correspondence (rows without a parent start at zero).
	// This usually converges in fewer iterations but abandons the
	// bit-identity-with-cold contract: the result is still a verified
	// feasible cover with a valid lower bound, just not necessarily the
	// same one a cold solve finds.
	WarmStart bool
}

// ResolveInfo reports how much of the parent solve a resolve reused.
type ResolveInfo struct {
	// Fallback is set when the parent state was unusable (nil, a
	// different problem than the delta's parent, interrupted, or solved
	// under different result-relevant options) and the child was solved
	// from scratch.
	Fallback bool
	// CompsReused / CompsSolved count the cyclic core's blocks that
	// were carried over versus re-solved.
	CompsReused, CompsSolved int
	// RowsReduced / RowsTotal measure the replayed reduction: input
	// rows it eliminated (by replayed facts, rederived facts or
	// essential coverage) versus total input rows.
	RowsReduced, RowsTotal int
}

// SolveKeep runs the explicit-reduction ZDD_SCG pipeline on p and
// returns the result together with the state a later ResolveState can
// build on.  Options.Cache and Options.OnImprove are ignored (the
// retained state is the memoization here, and the observational hook
// has no defined replay semantics); DisableImplicit is forced on — see
// the package comment above.
func SolveKeep(p *matrix.Problem, opt Options) (*Result, *SolveState) {
	opt.fill()
	opt.DisableImplicit = true
	opt.Cache = nil
	opt.OnImprove = nil
	st := &SolveState{problem: p, opt: opt}
	st.res = solveKept(p, opt, st, nil, nil, false)
	return st.res, st
}

// ResolveState solves the delta's child problem, reusing as much of
// the parent state as the edit allows.  The returned result is
// bit-identical to SolveKeep(d.Child, opt) when ro.WarmStart is off
// (and the parent state was not produced under an exhausted budget);
// the fresh SolveState makes resolves chainable.  A nil or unusable
// parent state degrades to a full solve, reported in ResolveInfo.
func ResolveState(d *matrix.Delta, st *SolveState, opt Options, ro ResolveOptions) (*Result, *SolveState, *ResolveInfo) {
	opt.fill()
	opt.DisableImplicit = true
	opt.Cache = nil
	opt.OnImprove = nil
	info := &ResolveInfo{RowsTotal: len(d.Child.Rows)}
	if st == nil || st.res == nil || st.res.Interrupted || st.red == nil || st.red.Stopped ||
		!sameResultOptions(st.opt, opt) || !matrix.Equal(st.problem, d.Parent) {
		info.Fallback = true
		res, next := SolveKeep(d.Child, opt)
		info.CompsSolved = len(next.comps)
		return res, next, info
	}
	next := &SolveState{problem: d.Child, opt: opt}
	next.res = solveKept(d.Child, opt, next, d, st, ro.WarmStart)
	for _, cs := range next.states {
		reused := false
		for _, ps := range st.states {
			if ps == cs {
				reused = true
				break
			}
		}
		if reused {
			info.CompsReused++
		} else {
			info.CompsSolved++
		}
	}
	if next.red != nil {
		info.RowsReduced = len(d.Child.Rows) - len(next.red.Core.Rows)
	}
	return next.res, next, info
}

// solveKept is solve() for the explicit pipeline with state capture:
// when d and parent are non-nil the reduction replays the parent's
// trace and unchanged blocks are carried over (warm-seeding re-solved
// blocks when warm is set).  st receives the session state as it is
// built.
func solveKept(p *matrix.Problem, opt Options, st *SolveState, d *matrix.Delta, parent *SolveState, warm bool) *Result {
	t0 := time.Now()
	res := &Result{}
	tr := opt.Budget.Tracker()
	defer func() {
		if r := tr.Reason(); r != budget.None {
			res.Interrupted = true
			res.StopReason = r
		}
	}()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// ----- explicit reductions, replayed when a parent trace exists -----
	var red *matrix.TrackedReduction
	var trace *matrix.ReduceTrace
	if d != nil && parent != nil {
		red, trace = matrix.ReplayReduce(d, parent.trace, tr, workers)
	} else {
		red, trace = matrix.ReduceTrackedTrace(p, tr, workers)
	}
	st.red, st.trace = red, trace
	if red.Infeasible {
		res.Stats.TotalTime = time.Since(t0)
		return res
	}
	essential := append([]int(nil), red.Essential...)
	st.essential = essential
	core := red.Core
	res.Stats.CyclicCoreTime = time.Since(t0)
	res.Stats.CoreRows = len(core.Rows)
	res.Stats.CoreCols = len(core.ActiveCols())

	essCost := p.CostOf(essential)
	if len(core.Rows) == 0 {
		if essential == nil {
			essential = []int{} // nil would read as "infeasible"
		}
		sort.Ints(essential)
		res.Solution = essential
		res.Cost = essCost
		res.LB = float64(essCost)
		res.ProvedOptimal = true
		res.Stats.TotalTime = time.Since(t0)
		return res
	}

	// ----- block decomposition, mirroring solve() exactly -----
	comps := []matrix.Component{{Problem: core, RowIdx: coreRowIdx(core)}}
	if !opt.DisablePartition {
		if split := matrix.Components(core); len(split) > 1 {
			comps = split
		}
	}
	st.comps = comps

	// ----- portfolio, reusing blocks the edit left untouched -----
	states := make([]*compState, len(comps))
	var pend []int
	var warmer *warmSource
	for c := range comps {
		if parent != nil && c < len(parent.states) && c < len(parent.comps) &&
			compMatches(parent.comps[c].Problem, comps[c].Problem) {
			// Positional content match: the block's results are a pure
			// function of (rows, referenced costs, index, options), all
			// equal — reuse is bit-exact.
			states[c] = parent.states[c]
			continue
		}
		states[c] = &compState{core: comps[c].Problem, idx: c, capture: true}
		if warm && parent != nil {
			if warmer == nil {
				warmer = newWarmSource(parent, d, red)
			}
			states[c].warm = warmer.forComp(comps[c])
		}
		pend = append(pend, c)
	}
	st.states = states
	runStates(states, pend, opt, tr, nil)

	best := append([]int(nil), essential...)
	lbSum := float64(essCost)
	ceilSum := essCost
	for _, cs := range states {
		sol, lb, ok := cs.merge(&res.Stats)
		if !ok {
			res.Stats.TotalTime = time.Since(t0)
			return res
		}
		best = append(best, sol...)
		lbSum += lb
		ceilSum += int(math.Ceil(lb - 1e-9))
	}
	best = p.Irredundant(best)
	sort.Ints(best)
	res.Solution = best
	res.Cost = p.CostOf(best)
	res.LB = lbSum
	res.ProvedOptimal = res.Cost <= ceilSum
	res.Stats.TotalTime = time.Since(t0)
	return res
}

// coreRowIdx is the identity row index for the single-component case.
func coreRowIdx(core *matrix.Problem) []int {
	idx := make([]int, len(core.Rows))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// compMatches reports whether two blocks are the same subproblem: the
// same rows in the same order and the same cost on every referenced
// column.  Universe sizes may differ (column ids are stable across a
// delta); only referenced columns influence a block's solve.
func compMatches(pp, cp *matrix.Problem) bool {
	if len(pp.Rows) != len(cp.Rows) {
		return false
	}
	for i, r := range pp.Rows {
		cr := cp.Rows[i]
		if len(r) != len(cr) {
			return false
		}
		for k, j := range r {
			if cr[k] != j {
				return false
			}
		}
	}
	for _, r := range pp.Rows {
		for _, j := range r {
			if j >= len(cp.Cost) || pp.Cost[j] != cp.Cost[j] {
				return false
			}
		}
	}
	return true
}

// sameResultOptions reports whether two (filled) option sets produce
// the same results — the fields the cache digest covers, minus Workers
// (bit-identical by contract) and the budget (fallback already rejects
// interrupted parents).
func sameResultOptions(a, b Options) bool {
	return a.NumIter == b.NumIter &&
		a.BestCol == b.BestCol &&
		a.MaxR == b.MaxR &&
		a.MaxC == b.MaxC &&
		a.Params == b.Params &&
		a.Seed == b.Seed &&
		a.DisablePenalties == b.DisablePenalties &&
		a.DisablePromising == b.DisablePromising &&
		a.DisablePartition == b.DisablePartition &&
		a.DisableWarmStart == b.DisableWarmStart
}

// warmSource maps the parent's captured multipliers into a child
// block's row/column spaces through the delta.
type warmSource struct {
	// lambdaByChildCore[i] is the parent's λ for the parent core row
	// child core row i descends from, or 0 when the edit broke the
	// chain; muByCol is indexed by original column id.
	lambdaByChildCore []float64
	muByCol           []float64
}

func newWarmSource(parent *SolveState, d *matrix.Delta, red *matrix.TrackedReduction) *warmSource {
	w := &warmSource{}
	if parent.red == nil {
		return w
	}
	// Parent core row → λ, via the parent's block decomposition.
	lambdaByParentCore := make([]float64, len(parent.red.RowOrigin))
	haveL := make([]bool, len(parent.red.RowOrigin))
	w.muByCol = make([]float64, parent.problem.NCol)
	for c, comp := range parent.comps {
		if c >= len(parent.states) {
			break
		}
		ps := parent.states[c]
		if ps.lambdaSnap == nil {
			continue
		}
		for pos, coreRow := range comp.RowIdx {
			if pos < len(ps.lambdaSnap) && coreRow < len(lambdaByParentCore) {
				lambdaByParentCore[coreRow] = ps.lambdaSnap[pos]
				haveL[coreRow] = true
			}
		}
		for j, mu := range ps.muSnap {
			if mu != 0 && j < len(w.muByCol) {
				w.muByCol[j] = mu
			}
		}
	}
	// Parent input row → parent core row.
	inputToCore := make(map[int]int, len(parent.red.RowOrigin))
	for k, o := range parent.red.RowOrigin {
		inputToCore[o] = k
	}
	// Child core row → child input row → parent input row → λ.
	w.lambdaByChildCore = make([]float64, len(red.RowOrigin))
	for i, childInput := range red.RowOrigin {
		if childInput >= len(d.RowMap) {
			continue
		}
		pi := d.RowMap[childInput]
		if pi < 0 {
			continue
		}
		if k, ok := inputToCore[pi]; ok && haveL[k] {
			w.lambdaByChildCore[i] = lambdaByParentCore[k]
		}
	}
	return w
}

// forComp slices the source down to one child block.
func (w *warmSource) forComp(comp matrix.Component) *warmStart {
	lambda := make([]float64, len(comp.RowIdx))
	any := false
	for pos, coreRow := range comp.RowIdx {
		if coreRow < len(w.lambdaByChildCore) {
			lambda[pos] = w.lambdaByChildCore[coreRow]
			if lambda[pos] != 0 {
				any = true
			}
		}
	}
	if !any {
		return nil // nothing carried over: a cold start is strictly better
	}
	return &warmStart{lambda: lambda, muByCol: w.muByCol}
}
