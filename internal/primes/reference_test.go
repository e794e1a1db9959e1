package primes

import (
	"fmt"
	"math/bits"
	"sort"

	"ucp/internal/cube"
	"ucp/internal/matrix"
)

// Reference oracles for the differential tests: independently written
// (and slower) implementations that the production code must match
// bit for bit.

// implicant is a cube in (value, mask) form: mask bits are don't
// cares, value bits are the fixed assignment (value ∩ mask = 0).
type implicant struct {
	value, mask uint64
}

// TabularPrimes computes all prime implicants of the single-output
// function with ON-set minterms on and don't-care minterms dc over
// nvars variables, using the classical Quine–McCluskey tabulation:
// group implicants by the weight of their fixed ones, merge pairs that
// differ in exactly one fixed bit, and keep whatever never merges.
// It exists as an independently-implemented oracle for the iterated
// consensus generator (Generate); the two must produce identical prime
// sets on single-output functions.
func TabularPrimes(s *cube.Space, on, dc []uint64) (*cube.Cover, error) {
	nvars := s.Inputs()
	if s.Outputs() > 1 {
		return nil, fmt.Errorf("primes: tabular method handles at most one output, space has %d", s.Outputs())
	}
	if nvars > 63 {
		return nil, fmt.Errorf("primes: tabular method limited to 63 variables")
	}
	full := uint64(1)<<uint(nvars) - 1

	// Current generation, deduplicated.
	cur := make(map[implicant]bool)
	for _, m := range on {
		cur[implicant{m & full, 0}] = true
	}
	for _, m := range dc {
		cur[implicant{m & full, 0}] = true
	}

	primes := make(map[implicant]bool)
	for len(cur) > 0 {
		// Group by weight of the fixed ones for the adjacency scan.
		groups := make(map[int][]implicant)
		for imp := range cur {
			groups[bits.OnesCount64(imp.value)] = append(groups[bits.OnesCount64(imp.value)], imp)
		}
		merged := make(map[implicant]bool)
		next := make(map[implicant]bool)
		for w, g := range groups {
			hi := groups[w+1]
			for _, a := range g {
				for _, b := range hi {
					if a.mask != b.mask {
						continue
					}
					diff := a.value ^ b.value
					if bits.OnesCount64(diff) != 1 {
						continue
					}
					next[implicant{a.value &^ diff, a.mask | diff}] = true
					merged[a] = true
					merged[b] = true
				}
			}
		}
		for imp := range cur {
			if !merged[imp] {
				primes[imp] = true
			}
		}
		cur = next
	}

	// Emit as a cover, in a canonical order.
	list := make([]implicant, 0, len(primes))
	for imp := range primes {
		list = append(list, imp)
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].mask != list[b].mask {
			return list[a].mask < list[b].mask
		}
		return list[a].value < list[b].value
	})
	out := cube.NewCover(s)
	for _, imp := range list {
		c := s.NewCube()
		for i := 0; i < nvars; i++ {
			switch {
			case imp.mask>>uint(i)&1 == 1:
				s.SetInput(c, i, cube.DC)
			case imp.value>>uint(i)&1 == 1:
				s.SetInput(c, i, cube.One)
			default:
				s.SetInput(c, i, cube.Zero)
			}
		}
		if s.Outputs() == 1 {
			s.SetOutput(c, 0, true)
		}
		out.Add(c)
	}
	return out, nil
}

// MintermsOf enumerates the input minterms of a single-output cover
// (output 0 when the space has outputs).  Spaces beyond 63 inputs are
// not enumerable; their cubes contribute no minterms.
func MintermsOf(f *cube.Cover) []uint64 {
	seen := make(map[uint64]bool)
	for _, c := range f.Cubes {
		if err := f.S.Minterms(c, 0, func(m uint64) bool {
			seen[m] = true
			return true
		}); err != nil {
			break // >63 inputs: every cube fails the same way
		}
	}
	out := make([]uint64, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// buildCoveringReference is the original map-and-cube-containment
// construction, kept as the oracle for the differential tests: the
// streaming BuildCovering must reproduce its rows, ids and costs
// bit-identically.
func buildCoveringReference(f, d *cube.Cover, prs *cube.Cover, cm CostModel) (*matrix.Problem, []RowID, error) {
	s := f.S
	if s.Inputs() > MaxCoveringInputs {
		return nil, nil, fmt.Errorf("%w: %d inputs exceed %d", ErrCoveringLimit, s.Inputs(), MaxCoveringInputs)
	}
	nOut := s.Outputs()
	if nOut == 0 {
		nOut = 1
	}
	type key struct {
		m uint64
		o int
	}
	need := make(map[key]bool)
	for o := 0; o < nOut; o++ {
		for _, c := range f.Cubes {
			if err := s.Minterms(c, o, func(m uint64) bool {
				need[key{m, o}] = true
				return true
			}); err != nil {
				return nil, nil, err
			}
		}
		if d != nil {
			for _, c := range d.Cubes {
				if err := s.Minterms(c, o, func(m uint64) bool {
					delete(need, key{m, o}) // don't cares need no cover
					return true
				}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	ids := make([]RowID, 0, len(need))
	for k := range need {
		ids = append(ids, RowID{Minterm: k.m, Output: k.o})
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Output != ids[b].Output {
			return ids[a].Output < ids[b].Output
		}
		return ids[a].Minterm < ids[b].Minterm
	})

	rows := make([][]int, len(ids))
	for r, id := range ids {
		mc := s.CubeOfMinterm(id.Minterm, id.Output)
		for j, pc := range prs.Cubes {
			if s.Contains(pc, mc) {
				rows[r] = append(rows[r], j)
			}
		}
	}
	cost := make([]int, prs.Len())
	for j, pc := range prs.Cubes {
		switch cm {
		case LiteralCost:
			cost[j] = 1 + s.Inputs() - s.InputWeight(pc)
		default:
			cost[j] = 1
		}
	}
	p, err := matrix.New(rows, prs.Len(), cost)
	if err != nil {
		return nil, nil, err
	}
	return p, ids, nil
}
