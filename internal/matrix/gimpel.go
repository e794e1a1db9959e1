package matrix

import "sort"

// Gimpel's reduction (Gimpel 1965; surveyed in Coudert 1994, the
// paper's reference [10]).  It applies to a row r = {j, k} where
// column j covers only r and c_j ≤ c_k: every minimal solution either
// takes k (covering r) or takes j, so
//
//	opt(P) = c_j + opt(P')
//
// where P' removes row r and column j and reprices k to c_k − c_j
// (if the reduced solution contains k, the original pays c_k in place
// of (c_k − c_j) + c_j; if not, j is added).  With uniform costs the
// situation is already subsumed by column dominance plus essentiality
// — the reason the main reduction (ReduceBudgetWorkers), which the
// paper's unit-cost benchmarks exercise, omits it — but for weighted
// covering (e.g. the literal-count objective) it removes structure
// dominance cannot.

// GimpelStep records one application, enough to lift a reduced
// solution back.
type GimpelStep struct {
	J, K int // the removed column j and the repriced column k
}

// GimpelReduction is the outcome of ReduceGimpel.
type GimpelReduction struct {
	Core  *Problem     // reduced problem (owns a private cost vector)
	Steps []GimpelStep // applications, in order
	// Offset is the cost paid by the lift regardless of the reduced
	// solution (Σ c_j over the steps).
	Offset int
}

// ReduceGimpel applies Gimpel's reduction to fixpoint.  It does not
// run the other reductions; callers typically interleave it with
// ReduceBudgetWorkers.  The returned core holds a copy of the cost
// vector (column k's price changes), so the input problem is not
// modified.
func ReduceGimpel(p *Problem) *GimpelReduction {
	cur := p.Clone()
	res := &GimpelReduction{}
	for {
		step, ok := findGimpel(cur)
		if !ok {
			break
		}
		res.Offset += cur.Cost[step.J]
		cur.Cost[step.K] -= cur.Cost[step.J]
		// Drop row r (the only row containing j) and column j.
		var rows [][]int
		for _, r := range cur.Rows {
			if containsSorted(r, step.J) {
				continue
			}
			rows = append(rows, r)
		}
		cur.Rows = rows
		res.Steps = append(res.Steps, step)
	}
	res.Core = cur
	return res
}

// findGimpel searches for an applicable (j, k) pair: a row of exactly
// two columns whose first column covers only that row at no greater
// cost than the second.
func findGimpel(p *Problem) (GimpelStep, bool) {
	colCount := make([]int, p.NCol)
	for _, r := range p.Rows {
		for _, j := range r {
			colCount[j]++
		}
	}
	for _, r := range p.Rows {
		if len(r) != 2 {
			continue
		}
		a, b := r[0], r[1]
		if colCount[a] == 1 && p.Cost[a] <= p.Cost[b] {
			return GimpelStep{J: a, K: b}, true
		}
		if colCount[b] == 1 && p.Cost[b] <= p.Cost[a] {
			return GimpelStep{J: b, K: a}, true
		}
	}
	return GimpelStep{}, false
}

// Lift maps a solution of the reduced core back to the original
// problem: steps are unwound in reverse, adding j whenever the reduced
// solution does not contain k.  The returned cost under the original
// problem equals core cost + Offset.
func (g *GimpelReduction) Lift(coreSolution []int) []int {
	sol := append([]int(nil), coreSolution...)
	in := make(map[int]bool, len(sol))
	for _, j := range sol {
		in[j] = true
	}
	for i := len(g.Steps) - 1; i >= 0; i-- {
		st := g.Steps[i]
		if !in[st.K] {
			sol = append(sol, st.J)
			in[st.J] = true
		}
	}
	sort.Ints(sol)
	return sol
}
