package matrix

import (
	"math/rand"
	"testing"
)

// editScript applies up to 8 edits decoded from raw bytes to p.  The
// decoding is fully deterministic in (p, raw) and every operand is
// clamped into range, so any byte string is a valid script — the shape
// the fuzzer needs.
func editScript(p *Problem, raw []byte) (*Delta, error) {
	d := p.BeginDelta()
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		if n <= 0 {
			return 0
		}
		rnd = mixDelta(rnd + 0xbf58476d1ce4e5b9)
		return int(rnd % uint64(n))
	}
	ops := 0
	for k := 0; k < len(raw) && ops < 8; k++ {
		b := raw[k]
		rnd ^= uint64(b) * 0x94d049bb133111eb
		var err error
		switch b % 5 {
		case 0: // fresh random row
			n := 1 + next(4)
			row := make([]int, 0, n)
			for t := 0; t < n; t++ {
				row = append(row, next(d.Child.NCol))
			}
			d, err = d.AddRows([][]int{row})
		case 1: // superset of an existing row (the near-duplicate case)
			if len(d.Child.Rows) == 0 {
				continue
			}
			src := d.Child.Rows[next(len(d.Child.Rows))]
			row := append(append([]int(nil), src...), next(d.Child.NCol))
			d, err = d.AddRows([][]int{row})
		case 2: // drop a row
			if len(d.Child.Rows) <= 1 {
				continue
			}
			d, err = d.RemoveRows([]int{next(len(d.Child.Rows))})
		case 3: // fresh column covering a few rows
			var cover []int
			for t := 0; t <= next(3); t++ {
				if len(d.Child.Rows) > 0 {
					cover = append(cover, next(len(d.Child.Rows)))
				}
			}
			d, err = d.AddCols([]int{1 + next(3)}, [][]int{cover})
		case 4: // empty a column
			d, err = d.RemoveCols([]int{next(d.Child.NCol)})
		}
		if err != nil {
			return nil, err
		}
		ops++
	}
	return d, nil
}

// checkReplay reduces d's child cold and by replay and asserts the two
// reductions are bit-identical; it returns the replay's trace
// so chains can continue.
func checkReplay(t *testing.T, label string, d *Delta, trace *ReduceTrace, workers int) *ReduceTrace {
	t.Helper()
	want, _ := ReduceTraced(d.Child, nil, workers)
	got, newTrace := ReplayReduce(d, trace, nil, workers)
	sameReduction(t, label, got, want)
	return newTrace
}

func TestDeltaEditAPI(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {0, 3}}, 4, []int{1, 2, 3, 4})

	d, err := p.AddRows([][]int{{2, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Child.Rows[3]; !sameRow(got, []int{0, 2}) {
		t.Fatalf("AddRows did not normalise: %v", got)
	}
	if want := []int{0, 1, 2, -1}; !sameRow(d.RowMap, want) {
		t.Fatalf("AddRows RowMap = %v, want %v", d.RowMap, want)
	}

	d, err = d.RemoveRows([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, -1}; !sameRow(d.RowMap, want) {
		t.Fatalf("RemoveRows RowMap = %v, want %v", d.RowMap, want)
	}

	d, err = d.AddCols([]int{7}, [][]int{{0, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Child.NCol != 5 || d.Child.Cost[4] != 7 {
		t.Fatalf("AddCols universe: NCol=%d Cost=%v", d.Child.NCol, d.Child.Cost)
	}
	if got := d.Child.Rows[0]; !sameRow(got, []int{0, 1, 4}) {
		t.Fatalf("AddCols row 0 = %v", got)
	}
	if got := d.Child.Rows[2]; !sameRow(got, []int{0, 2, 4}) {
		t.Fatalf("AddCols row 2 = %v (duplicate cover index must collapse)", got)
	}

	d, err = d.RemoveCols([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Child.Rows[0]; !sameRow(got, []int{1, 4}) {
		t.Fatalf("RemoveCols row 0 = %v", got)
	}
	if d.Child.NCol != 5 {
		t.Fatalf("RemoveCols must keep the universe, NCol=%d", d.Child.NCol)
	}
	// The parent is never disturbed by any of it.
	if !Equal(p, MustNew([][]int{{0, 1}, {1, 2}, {0, 3}}, 4, []int{1, 2, 3, 4})) {
		t.Fatal("edits mutated the parent problem")
	}

	// Error paths.
	if _, err := p.AddRows([][]int{{99}}); err == nil {
		t.Fatal("AddRows accepted an out-of-universe column")
	}
	if _, err := p.RemoveRows([]int{17}); err == nil {
		t.Fatal("RemoveRows accepted an out-of-range index")
	}
	if _, err := p.AddCols([]int{-1}, [][]int{nil}); err == nil {
		t.Fatal("AddCols accepted a negative cost")
	}
	if _, err := p.RemoveCols([]int{-3}); err == nil {
		t.Fatal("RemoveCols accepted a bad id")
	}
}

func TestDeltaBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 80; trial++ {
		p := randReduceProblem(rng, 30, 25, 3, false)
		raw := make([]byte, 1+rng.Intn(10))
		rng.Read(raw)
		d, err := editScript(p, raw)
		if err != nil {
			t.Fatal(err)
		}
		got := DeltaBetween(p, d.Child)
		// The reconstruction must be a valid monotone content match:
		// every matched pair identical, parent indices increasing.
		last := -1
		matched := 0
		for i, pi := range got.RowMap {
			if pi < 0 {
				continue
			}
			if pi <= last {
				t.Fatalf("trial %d: match not monotone at child row %d", trial, i)
			}
			if !sameRow(p.Rows[pi], d.Child.Rows[i]) {
				t.Fatalf("trial %d: mismatched rows %v vs %v", trial, p.Rows[pi], d.Child.Rows[i])
			}
			last = pi
			matched++
		}
		// And it must be good enough to power an exact replay.
		trace := &ReduceTrace{}
		_, trace = ReduceTraced(p, nil, 1)
		want, _ := ReduceTraced(d.Child, nil, 1)
		res, _ := ReplayReduce(got, trace, nil, 1)
		sameReduction(t, "deltabetween-replay", res, want)
	}
}

// TestReplayReduceMatchesCold is the replay bit-exactness contract:
// for random instances, random edit scripts and several worker counts,
// replaying the parent's trace over the delta must reproduce the cold
// reduction of the child exactly — core rows, provenance, essentials
// and flags — and the emitted child trace must keep the property along
// a chain of further edits.
func TestReplayReduceMatchesCold(t *testing.T) {
	defer SetParMinShard(4)()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 120; trial++ {
		p := randReduceProblem(rng, 35, 30, 3, false)
		_, trace := ReduceTraced(p, nil, 1+trial%3)
		cur := p
		for gen := 0; gen < 3; gen++ {
			raw := make([]byte, 1+rng.Intn(8))
			rng.Read(raw)
			d, err := editScript(cur, raw)
			if err != nil {
				t.Fatal(err)
			}
			workers := []int{1, 2, 4}[trial%3]
			trace = checkReplay(t, "chain", d, trace, workers)
			cur = d.Child
		}
	}
}

// TestReplayReduceStaleTrace: replay must stay exact when the trace is
// outright wrong for the child — here, a trace from an unrelated
// instance.  Every fact fails verification (or verifies by luck, which
// is just as sound) and the fixpoint re-derives the rest.
func TestReplayReduceStaleTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 60; trial++ {
		p := randReduceProblem(rng, 30, 25, 3, false)
		q := randReduceProblem(rng, 30, 25, 3, false)
		_, alien := ReduceTraced(q, nil, 1)
		raw := make([]byte, 1+rng.Intn(6))
		rng.Read(raw)
		d, err := editScript(p, raw)
		if err != nil {
			t.Fatal(err)
		}
		// Clamp the alien facts into p's index space so they are
		// plausible-but-wrong rather than discarded on bounds.
		for i := range alien.RowKills {
			alien.RowKills[i][0] %= int32(len(p.Rows))
			alien.RowKills[i][1] %= int32(len(p.Rows))
		}
		want, _ := ReduceTraced(d.Child, nil, 1)
		got, _ := ReplayReduce(d, alien, nil, 1)
		sameReduction(t, "stale", got, want)
	}
}

// FuzzDeltaReplay drives the replay equivalence from raw fuzz input: a
// seed picks the base instance, the script bytes pick the edits, and
// the replayed reduction must equal the cold one bit for bit.
func FuzzDeltaReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4})
	f.Add(int64(7), []byte{4, 4, 4})
	f.Add(int64(42), []byte{1, 1, 0, 2, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		p := randReduceProblem(rng, 25, 25, 3, false)
		_, trace := ReduceTraced(p, nil, 1)
		d, err := editScript(p, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			want, _ := ReduceTraced(d.Child, nil, workers)
			got, _ := ReplayReduce(d, trace, nil, workers)
			sameReduction(t, "fuzz", got, want)
		}
	})
}
