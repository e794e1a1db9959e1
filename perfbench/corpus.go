package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/primes"
)

// Every input is a pure function of the workload seed.  Inputs whose
// solve time swings widely with the draw (the wide PLA functions:
// DenseQMC time depends on the variable order) are fixed functions
// whose cube order the seed shuffles, so figures stay comparable
// across seeds; the covering cores are drawn fresh from the seed, and
// the service traffic's schedule and edits (see buildMix).

// wide20Path is the fixed 20-input corpus function, relative to the
// repository root the benchmark runs from.
const wide20Path = "examples/wide20.pla"

// subSeed derives an independent generator seed for item i of a
// stream named by tag.
func subSeed(seed int64, tag string, i int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for _, c := range []byte(tag) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// plaInput is one pla_minimize input: a name and its PLA text.
type plaInput struct {
	name, text string
	replica    bool // one of the paper's replicas, not a wide function
}

// plaCorpus returns the pla_minimize inputs, each with its cubes in
// seeded order: wide20 and three 18-input random functions (all past
// the ZDD row threshold), which carry most of the time, then the seven
// Table 1 replicas and the 49 easy cyclic replicas of the paper's
// first experiment.  The four wide functions take similar times, so
// the latency tail falls among them however many passes a run
// completes; the many small functions put the median inside a dense
// spread of inputs, so it does not hang on any single one.
func plaCorpus(seed int64) ([]plaInput, error) {
	raw, err := os.ReadFile(wide20Path)
	if err != nil {
		return nil, fmt.Errorf("read corpus function: %w", err)
	}
	wide, err := pla.Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", wide20Path, err)
	}
	type named struct {
		name string
		f    *pla.File
	}
	fs := []named{
		{"wide20", wide},
		{"rand18a", benchmarks.RandomPLA(1, 18, 3, 140, 0.3, 4)},
		{"rand18b", benchmarks.RandomPLA(4, 18, 3, 140, 0.3, 4)},
		{"rand18c", benchmarks.RandomPLA(6, 18, 3, 140, 0.3, 4)},
	}
	nWide := len(fs)
	for _, in := range append(benchmarks.DifficultCyclic(), benchmarks.EasyCyclic()...) {
		fs = append(fs, named{in.Name, in.PLA()})
	}
	out := make([]plaInput, len(fs))
	for i, n := range fs {
		rng := rand.New(rand.NewSource(subSeed(seed, "pla", i)))
		shuffled := &pla.File{Space: n.f.Space, F: shuffleCubes(n.f.F, rng), D: shuffleCubes(n.f.D, rng), R: n.f.R, Type: n.f.Type}
		var b strings.Builder
		if err := shuffled.Write(&b); err != nil {
			return nil, fmt.Errorf("encode %s: %w", n.name, err)
		}
		out[i] = plaInput{name: n.name, text: b.String(), replica: i >= nWide}
	}
	return out, nil
}

func shuffleCubes(c *cube.Cover, rng *rand.Rand) *cube.Cover {
	if c == nil {
		return nil
	}
	out := cube.NewCover(c.S)
	for _, k := range rng.Perm(len(c.Cubes)) {
		out.Add(c.Cubes[k])
	}
	return out
}

// The cyclic cores of scp_cores: coreCount of them, each coreRows rows
// over two thirds as many columns, every row covering 4.  One size
// keeps the cores' solve times close, so the latency tail falls among
// them however many passes a run completes.  The cores are fixed
// (drawn from corePool) and the seed relabels their rows and columns:
// fresh draws differ in how hard they are, which moved the gap and
// the median solve from seed to seed by more than run noise does.
const coreCount, coreRows = 6, 175

// corePool seeds the fixed cores.
const corePool = 0xc07e

// componentSpec shapes the streamed, spilled instance of scp_cores.
func componentSpec(seed int64) benchmarks.ComponentSpec {
	return benchmarks.ComponentSpec{
		Seed: subSeed(seed, "components", 0), Components: 24, RowsPerComp: 80,
		ColsPerComp: 50, RowDegree: 4, MaxCost: 5,
	}
}

// coresCorpus is the scp_cores input set.
type coresCorpus struct {
	names    []string
	problems []*matrix.Problem
	replicas int // problems[:replicas] are the paper's replicas
	// stream is componentSpec(seed) as covering-matrix text, streamed
	// through the sharded driver; streamProb is the same instance in
	// memory, for checking answers.
	stream     string
	streamProb *matrix.Problem
}

// buildCores builds the covering problems of the Table 2 replicas and
// of the 49 easy cyclic replicas (prime generation and covering
// construction happen here, in set-up, so the measured loop never runs
// the front end), the cyclic cores, which carry most of the time,
// relabelled by the seed, and the streamed instance.  The many small problems put the
// median solve inside a dense spread of inputs.
func buildCores(seed int64) (*coresCorpus, error) {
	c := &coresCorpus{}
	for _, in := range append(benchmarks.Challenging(), benchmarks.EasyCyclic()...) {
		f := in.PLA()
		prs, _ := primes.GenerateAutoBudget(f.F, f.DontCares(), nil)
		p, _, err := primes.BuildCovering(f.F, f.DontCares(), prs, primes.UnitCost)
		if err != nil {
			return nil, fmt.Errorf("covering of %s: %w", in.Name, err)
		}
		c.names = append(c.names, in.Name)
		c.problems = append(c.problems, p)
	}
	c.replicas = len(c.problems)
	for i := 0; i < coreCount; i++ {
		rng := rand.New(rand.NewSource(subSeed(seed, "core", i)))
		c.names = append(c.names, fmt.Sprintf("core%d", i))
		c.problems = append(c.problems, permuted(benchmarks.CyclicCovering(subSeed(corePool, "core", i), coreRows, coreRows*2/3, 4), rng))
	}
	spec := componentSpec(seed)
	var b strings.Builder
	if err := spec.WriteMatrix(&b); err != nil {
		return nil, fmt.Errorf("encode component instance: %w", err)
	}
	c.stream = b.String()
	p, err := benchmarks.ComponentCovering(spec)
	if err != nil {
		return nil, err
	}
	c.streamProb = p
	return c, nil
}

// problemText encodes p in the covering-matrix text format.
func problemText(p *matrix.Problem) (string, error) {
	var b strings.Builder
	if err := ucp.WriteProblem(&b, p); err != nil {
		return "", err
	}
	return b.String(), nil
}

// permuted returns p with its rows and columns relabelled by rng: the
// same instance to a canonicalising cache, different bytes on the wire.
func permuted(p *matrix.Problem, rng *rand.Rand) *matrix.Problem {
	colPerm := rng.Perm(p.NCol)
	cost := make([]int, p.NCol)
	for j, c := range p.Cost {
		cost[colPerm[j]] = c
	}
	rows := make([][]int, len(p.Rows))
	for k, i := range rng.Perm(len(p.Rows)) {
		r := make([]int, len(p.Rows[i]))
		for t, j := range p.Rows[i] {
			r[t] = colPerm[j]
		}
		rows[k] = r
	}
	return matrix.MustNew(rows, p.NCol, cost)
}

// blockCovering returns a block-diagonal problem: blocks independent
// cyclic cores of rows rows over cols columns each, block b owning
// columns [b·cols, (b+1)·cols).
func blockCovering(seed int64, blocks, rows, cols int) *matrix.Problem {
	var all [][]int
	var cost []int
	for b := 0; b < blocks; b++ {
		p := benchmarks.CyclicCovering(subSeed(seed, "block", b), rows, cols, 4)
		for _, r := range p.Rows {
			shifted := make([]int, len(r))
			for t, j := range r {
				shifted[t] = j + b*cols
			}
			all = append(all, shifted)
		}
		cost = append(cost, p.Cost...)
	}
	return matrix.MustNew(all, len(cost), cost)
}

// withBlockRow returns p, a blockCovering with blocks of cols columns,
// plus one random row of degree 4 inside one random block.
func withBlockRow(p *matrix.Problem, rng *rand.Rand, cols int) *matrix.Problem {
	base := rng.Intn(p.NCol/cols) * cols
	seen := map[int]bool{}
	var r []int
	for len(r) < 4 {
		if j := base + rng.Intn(cols); !seen[j] {
			seen[j] = true
			r = append(r, j)
		}
	}
	rows := append([][]int(nil), p.Rows...)
	return matrix.MustNew(append(rows, r), p.NCol, p.Cost)
}
