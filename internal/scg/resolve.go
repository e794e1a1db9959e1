package scg

import (
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
	problem *matrix.Problem
	opt     Options // filled, implicit phase disabled
	red     *matrix.Reduction
	trace   *matrix.ReduceTrace
	comps   []matrix.Component
	states  []*compState
	res     *Result
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
//
// A kept solve does not split the input into its connected parts (the
// retained reduction and block states are whole-problem), so it equals
// Solve with DisableImplicit bit for bit only when p is connected
// (matrix.Partition(p) == nil); on a disconnected input the two may
// differ in solution, bounds and counters, though both are verified
// covers with valid lower bounds.
func SolveKeep(p *matrix.Problem, opt Options) (*Result, *SolveState) {
	opt = keepOptions(opt)
	st := &SolveState{problem: p, opt: opt}
	st.res = solve(p, opt, &keepCtx{st: st})
	return st.res, st
}

// keepOptions pins the options of a kept solve or a resolve.
func keepOptions(opt Options) Options {
	opt.fill()
	opt.DisableImplicit = true
	opt.Cache = nil
	opt.OnImprove = nil
	return opt
}

// ResolveState solves the delta's child problem, reusing as much of
// the parent state as the edit allows.  The returned result is
// bit-identical to SolveKeep(d.Child, opt) when ro.WarmStart is off
// (and the parent state was not produced under an exhausted budget);
// the fresh SolveState makes resolves chainable.  A nil or unusable
// parent state degrades to a full solve, reported in ResolveInfo.
func ResolveState(d *matrix.Delta, st *SolveState, opt Options, ro ResolveOptions) (*Result, *SolveState, *ResolveInfo) {
	opt = keepOptions(opt)
	info := &ResolveInfo{RowsTotal: len(d.Child.Rows)}
	if st == nil || st.res == nil || st.res.Interrupted || st.red == nil || st.red.Stopped ||
		!sameResultOptions(st.opt, opt) || !matrix.Equal(st.problem, d.Parent) {
		info.Fallback = true
		res, next := SolveKeep(d.Child, opt)
		info.CompsSolved = len(next.comps)
		return res, next, info
	}
	next := &SolveState{problem: d.Child, opt: opt}
	k := &keepCtx{st: next, d: d, parent: st, warm: ro.WarmStart}
	next.res = solve(d.Child, opt, k)
	info.CompsReused, info.CompsSolved = k.reused, len(next.states)-k.reused
	if next.red != nil {
		info.RowsReduced = len(d.Child.Rows) - len(next.red.Core.Rows)
	}
	return next.res, next, info
}

// keepCtx carries a kept solve through the ordinary pipeline (solve →
// solvePart).  A nil context is an ordinary solve.  Otherwise the
// reduction records a fact trace, every block captures its initial
// multipliers, and st receives the session state as it is built; on a
// resolve (parent set) the reduction replays the parent's trace
// instead, and blocks the edit left untouched are carried over
// (re-solved ones warm-seeded when warm is set).
type keepCtx struct {
	st     *SolveState
	d      *matrix.Delta // parent.problem → st.problem; set with parent
	parent *SolveState
	warm   bool
	warmer *warmSource // built on the first warm-seeded block
	reused int         // blocks carried over from parent
}

// reduce runs the explicit reductions on work.
func (k *keepCtx) reduce(work *matrix.Problem, tr *budget.Tracker, workers int) *matrix.Reduction {
	switch {
	case k == nil:
		return matrix.ReduceBudgetWorkers(work, tr, workers)
	case k.parent != nil:
		k.st.red, k.st.trace = matrix.ReplayReduce(k.d, k.parent.trace, tr, workers)
	default:
		k.st.red, k.st.trace = matrix.ReduceTraced(work, tr, workers)
	}
	return k.st.red
}

// blocks builds the portfolio states of the cyclic core's blocks and
// lists the ones still to solve.  A parent block is reused on a
// positional content match, which makes reuse bit-exact: a block's
// results are a pure function of (rows, referenced costs, index,
// options), all equal.
func (k *keepCtx) blocks(comps []matrix.Component, partIdx int) ([]*compState, []int) {
	states := make([]*compState, len(comps))
	var pend []int
	if k != nil && len(comps) == 1 {
		// Warm starts map multipliers through RowIdx: the identity here.
		comps[0].RowIdx = make([]int, len(comps[0].Problem.Rows))
		for i := range comps[0].RowIdx {
			comps[0].RowIdx[i] = i
		}
	}
	for c, comp := range comps {
		if k != nil && k.parent != nil && c < len(k.parent.states) && c < len(k.parent.comps) &&
			compMatches(k.parent.comps[c].Problem, comp.Problem) {
			states[c] = k.parent.states[c]
			k.reused++
			continue
		}
		states[c] = &compState{core: comp.Problem, idx: c, part: partIdx, capture: k != nil}
		if k != nil && k.warm {
			if k.warmer == nil {
				k.warmer = newWarmSource(k.parent, k.d, k.st.red)
			}
			states[c].warm = k.warmer.forComp(comp)
		}
		if pend == nil {
			pend = make([]int, 0, len(comps))
		}
		pend = append(pend, c)
	}
	if k != nil {
		k.st.comps, k.st.states = comps, states
	}
	return states, pend
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

func newWarmSource(parent *SolveState, d *matrix.Delta, red *matrix.Reduction) *warmSource {
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
