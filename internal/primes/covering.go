package primes

import (
	"fmt"
	"math/bits"

	"ucp/internal/cube"
	"ucp/internal/matrix"
)

// BuildCovering constructs the unate covering problem for the function
// (f care ON-set, d don't-care set) over the given prime cover: one
// row per ON-minterm not excused by d, one column per prime.  It
// returns the problem plus the row identities (for reporting).
//
// The construction streams: per output, the required minterms are
// collected into one reusable 2^n-bit set (F cubes set bits, D cubes
// clear them, both via packed (value, mask) submask enumeration with a
// word-fill fast path over the low don't-care bits), and rows are
// emitted in ascending minterm order directly from the bit set, with
// prime membership decided by the two-word test (m^value)&^mask == 0
// against the per-output packed prime list.  No per-minterm cube is
// allocated and no map is built; the row order (output-major, minterm-
// ascending) and contents are bit-identical to the one the original
// map-and-cube-containment construction produced.
//
// Functions with more than MaxCoveringInputs inputs fail with an error
// matching ErrCoveringLimit.
func BuildCovering(f, d *cube.Cover, prs *cube.Cover, cm CostModel) (*matrix.Problem, []RowID, error) {
	s := f.S
	n := s.Inputs()
	if n > MaxCoveringInputs {
		return nil, nil, fmt.Errorf("%w: %d inputs exceed %d", ErrCoveringLimit, n, MaxCoveringInputs)
	}
	nOut := s.Outputs()
	if nOut == 0 {
		nOut = 1
	}

	// Pack the primes once, bucketed per output (ascending column id).
	type packedPrime struct {
		col         int
		value, mask uint64
	}
	byOut := make([][]packedPrime, nOut)
	for j, pc := range prs.Cubes {
		value, mask, ok := s.PackInput(pc)
		if !ok {
			continue // empty input part: covers no minterm
		}
		if s.Outputs() == 0 {
			byOut[0] = append(byOut[0], packedPrime{j, value, mask})
			continue
		}
		outs, _ := s.PackOutputs(pc)
		for outs != 0 {
			o := bits.TrailingZeros64(outs)
			outs &^= 1 << o
			byOut[o] = append(byOut[o], packedPrime{j, value, mask})
		}
	}

	words := (1<<uint(n) + 63) / 64
	need := make([]uint64, words)

	// paint sets (on=true) or clears (on=false) the minterms of c in
	// the bit set.  The low six don't-care bits are folded into a
	// single word pattern, so each enumerated submask paints one word.
	paint := func(c cube.Cube, o int, on bool) {
		if s.Outputs() > 0 && !s.Output(c, o) {
			return
		}
		value, mask, ok := s.PackInput(c)
		if !ok {
			return // empty part: no minterms
		}
		maskLow := mask & 63
		maskHigh := mask &^ 63
		var wpat uint64
		for sub := maskLow; ; sub = (sub - 1) & maskLow {
			wpat |= 1 << (value&63 | sub)
			if sub == 0 {
				break
			}
		}
		valueHigh := value &^ 63
		for sub := maskHigh; ; sub = (sub - 1) & maskHigh {
			w := (valueHigh | sub) >> 6
			if on {
				need[w] |= wpat
			} else {
				need[w] &^= wpat
			}
			if sub == 0 {
				break
			}
		}
	}

	var (
		ids  []RowID
		rows [][]int
		cols []int // shared arena; rows are carved out after it is final
		ends []int // arena end offset per row
	)
	for o := 0; o < nOut; o++ {
		for i := range need {
			need[i] = 0
		}
		for _, c := range f.Cubes {
			paint(c, o, true)
		}
		if d != nil {
			for _, c := range d.Cubes {
				paint(c, o, false)
			}
		}
		ps := byOut[o]
		for w, bw := range need {
			for bw != 0 {
				b := bits.TrailingZeros64(bw)
				bw &^= 1 << b
				m := uint64(w)<<6 | uint64(b)
				ids = append(ids, RowID{Minterm: m, Output: o})
				for _, p := range ps {
					if (m^p.value)&^p.mask == 0 {
						cols = append(cols, p.col)
					}
				}
				ends = append(ends, len(cols))
			}
		}
	}
	rows = make([][]int, len(ids))
	start := 0
	for r, end := range ends {
		rows[r] = cols[start:end:end]
		start = end
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
	p, err := matrix.FromSortedRows(rows, prs.Len(), cost)
	if err != nil {
		return nil, nil, err
	}
	return p, ids, nil
}
