package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"ucp"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/primes"
	"ucp/internal/scg"
)

// answer is one solve's output reduced to what the checks compare:
// the cost, the bound, a digest of the cover, and exact work counters
// (from the solve's own scg.Stats where it reports them).  Two solves
// of one input at one seed must produce equal answers.
type answer struct {
	Cost           int
	LB             float64
	Digest         uint64
	Primes         int
	CoveringNNZ    int
	SubgradIters   int
	FixSteps       int
	Runs           int
	ZDDNodes       int
	ZDDLiveNodes   int
	ZDDPlainNodes  int
	ZDDCollections int
	CoreRows       int
	CoreCols       int
	ShardComps     int
	ShardSpilled   int
}

// withStats copies the deterministic work counters of st into a.
func (a answer) withStats(st scg.Stats) answer {
	a.SubgradIters, a.FixSteps, a.Runs = st.SubgradIters, st.FixSteps, st.Runs
	a.ZDDNodes, a.ZDDLiveNodes, a.ZDDPlainNodes, a.ZDDCollections = st.ZDDNodes, st.ZDDLiveNodes, st.ZDDPlainNodes, st.ZDDCollections
	a.CoreRows, a.CoreCols = st.CoreRows, st.CoreCols
	return a
}

// sameOutput reports whether two answers carry the same cover, cost
// and bound, whatever counters each mode recorded.
func (a answer) sameOutput(b answer) bool {
	return a.Cost == b.Cost && a.LB == b.LB && a.Digest == b.Digest
}

// timing is the part of a solve's report that varies run to run.
type timing struct {
	core, total time.Duration // scg.Stats CyclicCoreTime and TotalTime
	shardPeak   int64
}

// outcome is what one job run returns; verify checks the answer
// against the input and runs only for the first answer of each mode.
type outcome struct {
	ans    answer
	tm     timing
	verify func() error
}

// job is one distinct input of a library workload.  run solves it once
// with the given worker count; with a tracer it records one span per
// call into a layer, under root.
type job struct {
	name string
	run  func(tr *tracer, root int, req int64, workers int) (outcome, error)
	reps int // solves per untraced pass (0 means 1)
}

// replicaReps is how many times an untraced pass solves each of the
// paper's replicas.  Most take a millisecond or less, and a sample that
// short is slowed several-fold by one slice of stolen CPU time; five
// samples a pass give each such job a median that one slice does not
// move.  The samples are spread over the pass (see order), so that the
// median solve describes the whole run, not the first tenth of every
// pass.
const replicaReps = 5

// order is the sequence of job indices one pass runs.  A traced pass
// runs every job once, in order.  An untraced pass runs in
// replicaReps rounds: each round solves every repeated job once, then
// its share of the others, so the small jobs' samples are spread
// between the large solves.
func order(jobs []job, traced bool) []int {
	var small, large, out []int
	for i, j := range jobs {
		if traced {
			out = append(out, i)
		} else if j.reps > 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	if traced {
		return out
	}
	for k := 0; k < replicaReps; k++ {
		out = append(out, small...)
		for b := k; b < len(large); b += replicaReps {
			out = append(out, large[b])
		}
	}
	return out
}

func digestInts(xs []int) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	return h.Sum64()
}

func digestStrings(xs []string) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		h.Write([]byte(x))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func coverStrings(c *ucp.Cover) []string {
	out := make([]string, c.Len())
	for i, cb := range c.Cubes {
		out[i] = c.S.String(cb)
	}
	return out
}

func checkBound(cost int, lb float64) error {
	if lb > float64(cost)+1e-9 {
		return fmt.Errorf("lower bound %.6g exceeds cost %d", lb, cost)
	}
	return nil
}

// plaJob minimises one PLA text.  Untraced it runs the public pipeline
// (ucp.ParsePLA, ucp.MinimizeSCG); traced it runs the same stages one
// call at a time: parse, prime generation, covering construction, the
// covering solve.
func plaJob(in plaInput) job {
	return job{name: in.name, run: func(tr *tracer, root int, req int64, workers int) (outcome, error) {
		opt := ucp.SCGOptions{Workers: workers}
		if tr == nil {
			f, err := ucp.ParsePLA(strings.NewReader(in.text))
			if err != nil {
				return outcome{}, err
			}
			res, err := ucp.MinimizeSCG(f, opt)
			if err != nil {
				return outcome{}, err
			}
			return plaOutcome(f, res.Cover, res.Products, res.LB, answer{Primes: res.Primes},
				timing{core: res.CyclicCoreTime, total: res.TotalTime}), nil
		}
		id := tr.begin("pla.parse", root, req)
		f, err := ucp.ParsePLA(strings.NewReader(in.text))
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = tr.begin("primes.gen", root, req)
		prs, _ := primes.GenerateAutoBudget(f.F, f.DontCares(), nil)
		tr.end(id)
		id = tr.begin("primes.covering", root, req)
		prob, _, err := primes.BuildCovering(f.F, f.DontCares(), prs, primes.UnitCost)
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = tr.begin("scg.solve", root, req)
		res := ucp.SolveSCG(prob, opt)
		tr.end(id)
		if res.Solution == nil {
			return outcome{}, fmt.Errorf("covering problem infeasible")
		}
		cover := primes.CoverFromColumns(prs, res.Solution)
		a := answer{Primes: prs.Len(), CoveringNNZ: prob.NNZ()}.withStats(res.Stats)
		return plaOutcome(f, cover, res.Cost, res.LB, a,
			timing{core: res.Stats.CyclicCoreTime, total: res.Stats.TotalTime}), nil
	}}
}

func plaOutcome(f *pla.File, cover *ucp.Cover, cost int, lb float64, a answer, tm timing) outcome {
	a.Cost, a.LB, a.Digest = cost, lb, digestStrings(coverStrings(cover))
	return outcome{ans: a, tm: tm, verify: func() error {
		if cover.Len() != cost {
			return fmt.Errorf("cover has %d products, cost says %d", cover.Len(), cost)
		}
		if !ucp.Equivalent(f, cover) {
			return fmt.Errorf("cover is not equivalent to the function")
		}
		return checkBound(cost, lb)
	}}
}

// scpOptions are the covering-solve options of scp_cores.
func scpOptions(workers int) ucp.SCGOptions {
	return ucp.SCGOptions{NumIter: 4, Seed: 1, Workers: workers}
}

// matrixJob solves one pre-built covering problem.
func matrixJob(name string, p *matrix.Problem) job {
	return job{name: name, run: func(tr *tracer, root int, req int64, workers int) (outcome, error) {
		id := tr.begin("scg.solve", root, req)
		res := ucp.SolveSCG(p, scpOptions(workers))
		tr.end(id)
		return coverOutcome(p, res, false)
	}}
}

// streamJob streams covering-matrix text through the sharded driver
// under a byte budget small enough that components spill to disk.
func streamJob(text string, p *matrix.Problem, spillDir string) job {
	return job{name: "components", run: func(tr *tracer, root int, req int64, workers int) (outcome, error) {
		opt := scpOptions(workers)
		opt.MemBudget = 16 << 10
		opt.SpillDir = spillDir
		id := tr.begin("shard.solve", root, req)
		res, err := ucp.SolveSCGMatrix(strings.NewReader(text), opt)
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		return coverOutcome(p, res, true)
	}}
}

func coverOutcome(p *matrix.Problem, res *ucp.SCGResult, sharded bool) (outcome, error) {
	if res.Solution == nil {
		return outcome{}, fmt.Errorf("no cover returned")
	}
	st := res.Stats
	a := answer{Cost: res.Cost, LB: res.LB, Digest: digestInts(res.Solution)}.withStats(st)
	if sharded {
		a.ShardComps, a.ShardSpilled = st.ShardComponents, st.ShardSpilled
	}
	sol := res.Solution
	return outcome{ans: a, tm: timing{core: st.CyclicCoreTime, total: st.TotalTime, shardPeak: st.ShardPeakBytes},
		verify: func() error {
			if !p.IsCover(sol) {
				return fmt.Errorf("solution is not a cover")
			}
			if c := p.CostOf(sol); c != a.Cost {
				return fmt.Errorf("solution costs %d, result says %d", c, a.Cost)
			}
			return checkBound(a.Cost, a.LB)
		}}, nil
}

// pass is one sweep over every job.
type pass struct {
	traced         bool
	dur            time.Duration
	spanLo, spanHi int
	tm             []timing
	lat            [][]float64   // wall ms per solve, by job; untraced passes only
	cpu            [][]float64   // CPU ms per solve, by job; untraced passes only
	cpuDur         time.Duration // less the reference samples'
	factor         float64       // hostSpeed factor of the pass
	solves         int
	steal          float64 // share of the machine's CPU time stolen during the pass
}

// libRun is a library workload's measured loop.
type libRun struct {
	jobs      []job
	limit     time.Duration // latency limit of one solve
	host      *hostSpeed
	passes    []pass
	refs      [2][]*answer // first answer per job, untraced and traced
	attempted int
	failed    int
	good      int // correct and within limit
	allocMB   float64
	failures  []string
}

func newLibRun(jobs []job, limit time.Duration, host *hostSpeed) *libRun {
	r := &libRun{jobs: jobs, limit: limit, host: host}
	r.refs[0] = make([]*answer, len(jobs))
	r.refs[1] = make([]*answer, len(jobs))
	return r
}

func (r *libRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// loop sweeps the jobs in whole passes until seconds have elapsed.
// With a tracer, passes alternate untraced and traced (at least one
// of each), which gives the tracing overhead.
func (r *libRun) loop(seconds float64, tr *tracer) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for p := 0; ; p++ {
		traced := tr != nil && p%2 == 1
		r.passes = append(r.passes, r.sweep(p, traced, tr, 0))
		if time.Now().After(deadline) && (tr == nil || p >= 1) {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// sweep runs every job once and checks each answer: the first answer
// of a job in a mode is verified against its input, every later one
// must repeat it exactly, and the two modes must agree on the output.
func (r *libRun) sweep(p int, traced bool, tr *tracer, workers int) pass {
	mode := 0
	if traced {
		mode = 1
	} else {
		tr = nil
	}
	ps := pass{traced: traced, tm: make([]timing, len(r.jobs)), lat: make([][]float64, len(r.jobs)), cpu: make([][]float64, len(r.jobs))}
	ps.spanLo = tr.count()
	// Every pass starts from the same heap, so the collector's cycles
	// fall at the same points of every pass: otherwise whichever small
	// solves a cycle happens to overlap pay for it, and the median
	// solve moves by a fifth from one pass to the next.
	runtime.GC()
	h := r.host
	from, spent := len(h.samples), h.spent
	h.sample()
	h.sample()
	s0, c0 := stealTicks(), cpuNow()
	t0 := time.Now()
	for _, i := range order(r.jobs, traced) {
		j := r.jobs[i]
		req := int64(p*len(r.jobs) + i)
		root := tr.begin("solve", -1, req)
		c, s := cpuNow(), time.Now()
		out, err := j.run(tr, root, req, workers)
		d, dc := time.Since(s), cpuNow()-c
		tr.end(root)
		h.maybe()
		r.attempted++
		ps.solves++
		if !traced {
			ps.lat[i] = append(ps.lat[i], ms(d))
			ps.cpu[i] = append(ps.cpu[i], ms(dc))
		}
		if err != nil {
			r.fail("%s: %v", j.name, err)
			continue
		}
		ps.tm[i] = out.tm
		if !r.check(mode, i, out) {
			continue
		}
		if d <= r.limit {
			r.good++
		}
	}
	ps.dur, ps.cpuDur = time.Since(t0), cpuNow()-c0-(h.spent-spent)
	ps.factor = h.factor(from)
	ps.steal = stealShare(stealTicks()-s0, ps.dur)
	ps.spanHi = tr.count()
	return ps
}

func (r *libRun) check(mode, i int, out outcome) bool {
	name := r.jobs[i].name
	ref := r.refs[mode][i]
	if ref == nil {
		if err := out.verify(); err != nil {
			r.fail("%s: %v", name, err)
			return false
		}
		a := out.ans
		r.refs[mode][i] = &a
		ref = &a
	} else if *ref != out.ans {
		r.fail("%s: determinism: answer differs from the first pass (%+v vs %+v)", name, out.ans, *ref)
		return false
	}
	if other := r.refs[1-mode][i]; other != nil && !other.sameOutput(*ref) {
		r.fail("%s: traced and untraced solves disagree", name)
		return false
	}
	return true
}

// endToEnd fills the end-to-end metrics of an untraced run from the
// CPU time each solve and each pass took, and returns the CPU tail and
// the same figures in wall-clock time, which a shared host moves too
// much to bound.  Throughput is from the median pass, not the total,
// so one disturbed pass does not move it.  The median solve is the
// median over jobs of each job's median: every job weighs the same,
// and one slow pass moves no job's median.
func (r *libRun) endToEnd(m map[string]float64) (tail, map[string]any) {
	var rates, wallRates []float64
	cpu := r.perJob(func(p pass) [][]float64 {
		out := make([][]float64, len(p.cpu))
		for j, xs := range p.cpu {
			for _, x := range xs {
				out[j] = append(out[j], x*p.factor)
			}
		}
		return out
	})
	wall := r.perJob(func(p pass) [][]float64 { return p.lat })
	for _, p := range r.passes {
		rates = append(rates, ratio(float64(p.solves), p.cpuDur.Seconds()*p.factor))
		wallRates = append(wallRates, ratio(float64(p.solves), p.dur.Seconds()))
	}
	m["solves_per_cpu_s"] = median(rates)
	m["solve_cpu_p50_ms"] = medianOfMedians(cpu)
	m["slo_met_ratio"] = ratio(float64(r.good), float64(r.attempted))
	m["alloc_mb_per_solve"] = ratio(r.allocMB, float64(r.attempted))
	cost, gap := 0, 0
	for _, a := range r.refs[0] {
		if a != nil {
			cost += a.Cost
			gap += gapOf(a.Cost, a.LB)
		}
	}
	m["cost_sum"] = float64(cost)
	m["gap_sum"] = float64(gap)
	t := tailOf(concat(cpu))
	m["solve_cpu_tail_ms"] = t.Value
	raw := r.perJob(func(p pass) [][]float64 { return p.cpu })
	return t, map[string]any{"solves_per_s": median(wallRates), "solve_p50_ms": medianOfMedians(wall), "solve_tail": tailOf(concat(wall)),
		"cpu_solve_p50_ms": medianOfMedians(raw)}
}

// perJob gathers, by job, the per-solve figures of every untraced pass.
func (r *libRun) perJob(of func(pass) [][]float64) [][]float64 {
	out := make([][]float64, len(r.jobs))
	for _, p := range r.passes {
		for j, xs := range of(p) {
			out[j] = append(out[j], xs...)
		}
	}
	return out
}

// passSteal lists the steal share of every pass.
func passSteal(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.steal
	}
	return out
}

// passSeconds lists the wall and CPU seconds and the hostSpeed factor
// of every pass.
func passSeconds(ps []pass) (wall, cpu, factor []float64) {
	for _, p := range ps {
		wall = append(wall, p.dur.Seconds())
		cpu = append(cpu, p.cpuDur.Seconds())
		factor = append(factor, p.factor)
	}
	return wall, cpu, factor
}

// layerMetrics fills the per-layer metrics a traced library run
// measures itself: stage times from its spans, work counters from its
// answers, the scg Stats timers, and the tracing overhead.
func (r *libRun) layerMetrics(tr *tracer, m map[string]float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var plain, traced []float64
	for _, p := range r.passes {
		if !p.traced {
			plain = append(plain, ms(p.dur))
			continue
		}
		traced = append(traced, ms(p.dur))
		sum := map[string]float64{}
		for i := p.spanLo; i < p.spanHi; i++ {
			sum[spans[i].Name] += ms(spans[i].dur())
			if spans[i].Parent < 0 {
				sum["self"] += ms(self[i])
			}
		}
		var core, loop time.Duration
		var peak int64
		for _, t := range p.tm {
			core += t.core
			loop += t.total - t.core
			peak = max(peak, t.shardPeak)
		}
		sum["core"], sum["loop"], sum["peak"] = ms(core), ms(loop), float64(peak)
		for k, v := range sum {
			byName[k] = append(byName[k], v)
		}
	}
	med := func(k string) float64 { return median(byName[k]) }
	m["pla.parse_ms"] = med("pla.parse")
	m["primes.gen_ms"] = med("primes.gen")
	m["primes.covering_ms"] = med("primes.covering")
	m["shard.ms"] = med("shard.solve")
	m["shard.peak_bytes"] = med("peak")
	m["scg.core_ms"] = med("core")
	m["scg.loop_ms"] = med("loop")
	m["pipeline.self_ms"] = med("self")
	m["bench.trace_overhead_pct"] = 100 * ratio(median(traced)-median(plain), median(plain))
	counterMetrics(r.refs[1], m)
}

// counterMetrics fills the work-counter metrics from answers (nil
// entries are skipped): sums over the distinct inputs, except that
// zdd.chain_ratio is the plain-equivalent over the live node total.
func counterMetrics(answers []*answer, m map[string]float64) {
	var sum answer
	for _, a := range answers {
		if a == nil {
			continue
		}
		sum.Primes += a.Primes
		sum.CoveringNNZ += a.CoveringNNZ
		sum.SubgradIters += a.SubgradIters
		sum.FixSteps += a.FixSteps
		sum.Runs += a.Runs
		sum.ZDDNodes += a.ZDDNodes
		sum.ZDDLiveNodes += a.ZDDLiveNodes
		sum.ZDDPlainNodes += a.ZDDPlainNodes
		sum.ZDDCollections += a.ZDDCollections
		sum.CoreRows += a.CoreRows
		sum.CoreCols += a.CoreCols
		sum.ShardComps += a.ShardComps
		sum.ShardSpilled += a.ShardSpilled
	}
	m["primes.count"] = float64(sum.Primes)
	m["primes.covering_nnz"] = float64(sum.CoveringNNZ)
	m["scg.subgrad_iters"] = float64(sum.SubgradIters)
	m["scg.fix_steps"] = float64(sum.FixSteps)
	m["scg.runs"] = float64(sum.Runs)
	m["zdd.peak_nodes"] = float64(sum.ZDDNodes)
	m["zdd.live_nodes"] = float64(sum.ZDDLiveNodes)
	m["zdd.chain_ratio"] = ratio(float64(sum.ZDDPlainNodes), float64(sum.ZDDLiveNodes))
	m["zdd.collections"] = float64(sum.ZDDCollections)
	m["reduce.core_rows"] = float64(sum.CoreRows)
	m["reduce.core_cols"] = float64(sum.CoreCols)
	m["shard.components"] = float64(sum.ShardComps)
	m["shard.spilled"] = float64(sum.ShardSpilled)
}

// speedup times one untraced pass at Workers=1 against one at
// Workers=nproc, both with GOMAXPROCS at nproc; both must reproduce the
// untraced answers exactly.
func (r *libRun) speedup() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	all := r.sweep(-1, false, nil, runtime.NumCPU())
	one := r.sweep(-1, false, nil, 1)
	return ratio(one.dur.Seconds(), all.dur.Seconds())
}
