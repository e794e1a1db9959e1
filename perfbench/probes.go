package main

import (
	"io"
	"runtime"
	"strings"
	"time"

	"ucp/internal/canon"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/primes"
	"ucp/internal/scg"
	"ucp/internal/scpio"
)

// Probes call one layer's public function at a time on the inputs a
// workload solves, which gives that layer's per-call cost without
// instrumenting the program.  The exact-repeat work counters come from
// the solves' own scg.Stats instead (counterMetrics).  Each probe follows the
// order scg.Solve uses: partition, then per part the implicit (ZDD)
// reduction, the explicit reduction, and per block of the cyclic core
// one cold subgradient ascent, a dual ascent and a greedy pass.

// implicitMaxR/C are scg's default MaxR/MaxC early-exit sizes, which
// the probe needs to stop where scg.Solve stops; scg does not export
// them.  probeMatrices returns the core sizes it reached so a run can
// report whether the probe still mirrors the solves
// (probe_matches_solve).
const implicitMaxR, implicitMaxC = 5000, 10000

func timed(tr *tracer, name string, fn func()) time.Duration {
	id := tr.begin(name, -1, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// probeMatrices runs the layer probes over problems, adds their
// per-call times (per pass over the distinct problems) to m, and
// returns the rows of each problem's reduced core.
func probeMatrices(tr *tracer, problems []*matrix.Problem, m map[string]float64) []int {
	var implicit, zddTime, reduce, part, sub, da, gr time.Duration
	var rowsIn, rowsOut, parts, iters int
	cores := make([]int, len(problems))
	var lbSum float64
	var sc lagrangian.Scratch
	workers := runtime.GOMAXPROCS(0)
	for k, p := range problems {
		var comps []matrix.Component
		part += timed(tr, "probe.partition", func() { comps = matrix.Partition(p) })
		subs := []*matrix.Problem{p}
		if comps != nil {
			subs = subs[:0]
			for _, c := range comps {
				q, _ := c.Problem.CompactSparse()
				subs = append(subs, q)
			}
		}
		parts += len(subs)
		for _, q := range subs {
			var ir *scg.ImplicitResult
			d := timed(tr, "probe.implicit", func() {
				ir = scg.ImplicitReduceBudgetWorkers(q, implicitMaxR, implicitMaxC, 0, nil, workers)
			})
			implicit += d
			if !ir.Dense {
				zddTime += d
			}
			rowsIn += len(q.Rows)
			work := q
			if !ir.Aborted && !ir.Infeasible {
				work = ir.Core
			}
			rowsOut += len(work.Rows)
			var red *matrix.Reduction
			reduce += timed(tr, "probe.reduce", func() { red = matrix.ReduceBudgetWorkers(work, nil, workers) })
			if red.Infeasible || len(red.Core.Rows) == 0 {
				continue
			}
			cores[k] += len(red.Core.Rows)
			for _, blk := range matrix.Components(red.Core) {
				b, _ := blk.Problem.CompactSparse()
				var res *lagrangian.Result
				sub += timed(tr, "probe.subgradient", func() {
					res = lagrangian.SubgradientScratch(b, lagrangian.Params{}, nil, 0, nil, &sc)
				})
				iters += res.Iters
				lbSum += res.LB
				da += timed(tr, "probe.dualascent", func() { lagrangian.DualAscent(b, nil) })
				gr += timed(tr, "probe.greedy", func() { lagrangian.BestGreedy(b, &sc, res.CTilde) })
			}
		}
	}
	m["partition.ms"] = ms(part)
	m["partition.parts"] = float64(parts)
	m["implicit.ms"] = ms(implicit)
	m["implicit.zdd_share"] = ratio(zddTime.Seconds(), implicit.Seconds())
	m["implicit.rows_in"] = float64(rowsIn)
	m["implicit.rows_out"] = float64(rowsOut)
	m["reduce.ms"] = ms(reduce)
	m["subgradient.ms"] = ms(sub)
	m["subgradient.iters"] = float64(iters)
	m["subgradient.ns_per_iter"] = ratio(float64(sub.Nanoseconds()), float64(iters))
	m["subgradient.lb_sum"] = lbSum
	m["dualascent.ms"] = ms(da)
	m["greedy.ms"] = ms(gr)
	return cores
}

// covering parses a PLA text and builds its covering problem.
func covering(text string) (*pla.File, *matrix.Problem, error) {
	f, err := pla.Parse(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	prs, _ := primes.GenerateAutoBudget(f.F, f.DontCares(), nil)
	p, _, err := primes.BuildCovering(f.F, f.DontCares(), prs, primes.UnitCost)
	return f, p, err
}

// denseShare is the share of functions the DenseQMC engine claims.
func denseShare(fs []*pla.File) float64 {
	n := 0
	for _, f := range fs {
		if primes.DenseEligible(f.F, f.DontCares()) {
			n++
		}
	}
	return ratio(float64(n), float64(len(fs)))
}

// canonProbe returns the mean canon.Canonicalize time per problem, ms.
func canonProbe(tr *tracer, problems []*matrix.Problem) float64 {
	var d time.Duration
	for _, p := range problems {
		d += timed(tr, "probe.canon", func() { canon.Canonicalize(p) })
	}
	return ratio(ms(d), float64(len(problems)))
}

// scpioProbe returns the covering-matrix text parse rate, MB/s: the
// MatrixReader.Next loop over every text, repeated until at least
// 50 ms have been measured.
func scpioProbe(tr *tracer, texts []string) (float64, error) {
	var bytes int
	var d time.Duration
	for d < 50*time.Millisecond {
		for _, t := range texts {
			var err error
			d += timed(tr, "probe.scpio", func() { err = readMatrix(t) })
			if err != nil {
				return 0, err
			}
			bytes += len(t)
		}
	}
	return ratio(float64(bytes)/1e6, d.Seconds()), nil
}

func readMatrix(text string) error {
	mr, err := scpio.NewMatrixReader(strings.NewReader(text))
	if err != nil {
		return err
	}
	var buf []int
	for {
		buf, err = mr.Next(buf[:0])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
