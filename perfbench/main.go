// Command perfbench is the repository's benchmark: three workloads,
// each reporting the end-to-end metrics a user sees (--trace 0) or,
// from a separate traced run, the per-layer metrics behind them
// (--trace 1).  It checks every answer as it goes.
//
// Run it from the repository root, normally through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload pla_minimize --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result, one JSON object
// with the keys correct, attempted, failed and metrics; the line
// before it describes the run (seed, machine, why the workload exists,
// which end-to-end metric each layer should move).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ucp/internal/matrix"
	"ucp/internal/pla"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string     // scratch directory inside the checkout
	host     *hostSpeed // the reference samples of this run
}

// report is what a workload run produces.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	info      map[string]any
}

// workload is one named traffic pattern.
type workload struct {
	name, why string
	run       func(c config) (*report, error)
}

var workloads = []workload{
	{"pla_minimize", "front-end heavy: PLA parse, DenseQMC primes and covering construction, the ZDD phase on the wide functions", runPLA},
	{"scp_cores", "Lagrangian heavy: subgradient, greedy, dual ascent and the restart portfolio on cyclic cores; front end and ZDD bypassed", runCores},
	{"ucpd_mix", "service path: open-loop ucpd traffic in an assumed mix (no traffic record exists) of cold solves, cache hits, incremental re-solves of one-block edits and small PLA requests", runMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "pla_minimize, scp_cores or ucpd_mix")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for spans, spill files and exact-repeat records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	c := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	// One core: the CPU time of a solve (see cpuNow) is then its work
	// alone, without the runtime's spinning or waiting on a second
	// virtual CPU that the hypervisor may have taken away.  Workers = 0
	// still means GOMAXPROCS; only the worker speed-up (libRun.speedup)
	// runs at nproc.
	runtime.GOMAXPROCS(1)
	host, err := newHostSpeed()
	if err != nil {
		return err
	}
	defer host.k.release()
	c.host = host
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	rep, err := w.run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	declared := endToEnd
	if c.trace {
		declared = perLayer()
	}
	metrics := make(map[string]any, len(declared))
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
	}
	for name := range rep.metrics {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not declared for this mode", w.name, name)
		}
	}
	for _, d := range declared {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if err := c.checkExactRepeat(rep); err != nil {
		return err
	}
	info := map[string]any{
		"workload":       w.name,
		"why":            w.why,
		"all_workloads":  workloadWhys(),
		"seed":           c.seed,
		"held_out_seed":  heldOutSeed,
		"seconds":        c.seconds,
		"trace":          c.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"layers":         layerMap(),
		"exact_repeat":   exactRepeat,
		"fail_ratio":     ratio(float64(rep.failed), float64(rep.attempted)),
		"failures":       rep.failures,
		"zero_means":     "a per-layer metric reads 0 on a workload that bypasses the layer or whose layer runs inside the server, out of the benchmark's reach",
		"workload_notes": rep.info,
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"info": info}); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

// probeMatches reports whether the layer probes reached the same core
// sizes as the solves' own Stats.  The probes copy scg's reduction
// settings, so false means the program changed how it reduces and the
// probes' per-call times no longer describe its solves.
func probeMatches(cores []int, answers []*answer) bool {
	if len(cores) != len(answers) {
		return false
	}
	for i, a := range answers {
		if a == nil || a.CoreRows != cores[i] {
			return false
		}
	}
	return true
}

// workloadWhys maps every workload to the reason it exists.
func workloadWhys() map[string]string {
	out := map[string]string{}
	for _, w := range workloads {
		out[w.name] = w.why
	}
	return out
}

// layerMap is the layer → end-to-end mapping recorded with every run.
func layerMap() []map[string]any {
	var out []map[string]any
	for _, l := range layers {
		var names []string
		for _, m := range l.Metrics {
			names = append(names, m.Name)
		}
		out = append(out, map[string]any{"layer": l.Name, "metrics": names, "should_move": l.Moves, "little_effect_on": l.Flat})
	}
	return out
}

// checkExactRepeat compares this run's exact-repeat counters with
// those an earlier run of the same binary recorded at the same seed,
// and records them when none did.  A difference is a determinism
// failure.
func (c config) checkExactRepeat(rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(c.out, fmt.Sprintf("exact-%s-%d-t%v-%s.json", c.workload, c.seed, c.trace, hex.EncodeToString(sum[:6])))
	now := map[string]float64{}
	for _, name := range exactRepeat {
		if v, ok := rep.metrics[name]; ok {
			now[name] = v
		}
	}
	if old, err := os.ReadFile(path); err == nil {
		var before map[string]float64
		if err := json.Unmarshal(old, &before); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		var names []string
		for name := range now {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if b, ok := before[name]; ok && b != now[name] {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("determinism: %s was %v on an earlier run at this seed, now %v", name, b, now[name]))
			}
		}
		return nil
	}
	out, err := json.Marshal(now)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is their median.
const setupRepeats = 9

// repeatSetup runs fn setupRepeats times and returns the median CPU
// time in seconds at the reference host speed (see hostSpeed), from a
// reference sample before each set-up; fn is told whether it is the
// last, kept set-up.
func repeatSetup(h *hostSpeed, fn func(last bool) error) (float64, error) {
	var ts []float64
	from := len(h.samples)
	for k := 0; k < setupRepeats; k++ {
		h.sample()
		c0 := cpuNow()
		if err := fn(k == setupRepeats-1); err != nil {
			return 0, err
		}
		ts = append(ts, (cpuNow() - c0).Seconds())
	}
	return median(ts) * h.factor(from), nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// newMetrics returns a metric map with every per-layer metric at 0, so
// a layer a workload bypasses reads 0.
func newMetrics(c config) map[string]float64 {
	m := map[string]float64{}
	if c.trace {
		for _, d := range perLayer() {
			m[d.Name] = 0
		}
	}
	return m
}

// libLimit is the latency limit of one library solve.
const libLimit = 5 * time.Second

// runLibrary measures a library workload: the untraced run gives the
// end-to-end metrics; the traced run gives the loop's per-layer
// metrics, the worker speed-up, and (via probe) the layer probes,
// which return the core rows they reached for each job.
func runLibrary(c config, jobs []job, setup float64, probe func(tr *tracer, m map[string]float64) ([]int, error)) (*report, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
		// Traced and untraced passes alternate and are compared, so
		// both solve every job once.
		jobs = append([]job(nil), jobs...)
		for i := range jobs {
			jobs[i].reps = 0
		}
	}
	r := newLibRun(jobs, libLimit, c.host)
	m := newMetrics(c)
	r.loop(c.seconds, tr)
	info := map[string]any{"passes": len(r.passes), "jobs": len(jobs), "replica_reps": replicaReps}
	info["pass_steal_share"] = passSteal(r.passes)
	info["pass_s"], info["pass_cpu_s"], info["pass_factor"] = passSeconds(r.passes)
	if !c.trace {
		t, wall := r.endToEnd(m)
		m["setup_s"] = setup
		m["peak_rss_mb"] = peakRSSMB()
		info["solve_cpu_tail"] = t
		info["wall"] = wall
		info["latency_limit_ms"] = ms(libLimit)
	} else {
		r.layerMetrics(tr, m)
		m["scg.speedup_w1"] = r.speedup()
		m["bench.ref_ms"] = c.host.refMS()
		cores, err := probe(tr, m)
		if err != nil {
			return nil, err
		}
		info["probe_matches_solve"] = probeMatches(cores, r.refs[1])
		path := filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		info["spans"] = path
	}
	return &report{metrics: m, attempted: r.attempted, failed: r.failed, failures: r.failures, info: info}, nil
}

func runPLA(c config) (*report, error) {
	var corpus []plaInput
	setup, err := repeatSetup(c.host, func(bool) error {
		var err error
		corpus, err = plaCorpus(c.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(corpus))
	for i, in := range corpus {
		jobs[i] = plaJob(in)
		if in.replica {
			jobs[i].reps = replicaReps
		}
	}
	return runLibrary(c, jobs, setup, func(tr *tracer, m map[string]float64) ([]int, error) {
		var fs []*pla.File
		var coverings []*matrix.Problem
		for _, in := range corpus {
			f, p, err := covering(in.text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			fs = append(fs, f)
			coverings = append(coverings, p)
		}
		m["primes.dense_share"] = denseShare(fs)
		return probeMatrices(tr, coverings, m), nil
	})
}

func runCores(c config) (*report, error) {
	var corpus *coresCorpus
	setup, err := repeatSetup(c.host, func(bool) error {
		var err error
		corpus, err = buildCores(c.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	spill, err := os.MkdirTemp(c.out, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	var jobs []job
	for i, p := range corpus.problems {
		j := matrixJob(corpus.names[i], p)
		if i < corpus.replicas {
			j.reps = replicaReps
		}
		jobs = append(jobs, j)
	}
	jobs = append(jobs, streamJob(corpus.stream, corpus.streamProb, spill))
	return runLibrary(c, jobs, setup, func(tr *tracer, m map[string]float64) ([]int, error) {
		cores := probeMatrices(tr, append(append([]*matrix.Problem(nil), corpus.problems...), corpus.streamProb), m)
		rate, err := scpioProbe(tr, []string{corpus.stream})
		m["scpio.parse_mb_per_s"] = rate
		return cores, err
	})
}

func runMix(c config) (*report, error) {
	var plan *mixPlan
	var srv *mixServer
	setup, err := repeatSetup(c.host, func(last bool) error {
		var err error
		if plan, err = buildMix(c.seed, c.seconds); err != nil {
			return err
		}
		if srv, err = startServer(c.out); err != nil {
			return err
		}
		if err = srv.warmUp(c.seed); err != nil {
			srv.stop()
			return err
		}
		if !last {
			return srv.stop()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	from := len(c.host.samples)
	res, span, cpu, steal := srv.drive(plan, tr, c.host)
	runtime.ReadMemStats(&m1)
	mr := &mixRun{plan: plan, res: res, stats: srv.srv.Stats(), span: span, cpu: cpu, host: c.host, from: from, factor: c.host.factor(from),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	mr.verify()
	m := newMetrics(c)
	var busy time.Duration
	for i := range res {
		busy += time.Duration(res[i].resp.ElapsedMS) * time.Millisecond
	}
	info := map[string]any{
		"rate_per_s":       mixRate,
		"requests":         len(res),
		"latency_limit_ms": ms(mixLimit),
		"server_busy":      busy.Seconds() / (c.seconds * float64(runtime.GOMAXPROCS(0))),
		"slo_miss_ratio":   1 - float64(mr.good)/float64(len(res)),
		"steal_share":      steal,
		"cpu_s":            cpu.Seconds(),
		"host_factor":      mr.factor,
		"num_gc":           m1.NumGC - m0.NumGC,
		"kind_p50_ms":      mr.kindMedians(mr.latencies),
		"kind_cpu_p50_ms":  mr.kindMedians(mr.cpuCosts),
	}
	if !c.trace {
		info["solve_cpu_tail"], info["wall"] = mr.endToEnd(m)
		m["setup_s"] = setup
		m["peak_rss_mb"] = peakRSSMB()
	} else {
		mr.layerMetrics(tr, m)
		m["bench.ref_ms"] = c.host.refMS()
		ps, texts := mr.probeInputs()
		answers := mr.solveInputs(ps)
		counterMetrics(answers, m)
		info["probe_matches_solve"] = probeMatches(probeMatrices(tr, ps, m), answers)
		m["canon.fingerprint_ms"] = canonProbe(tr, ps)
		if m["scpio.parse_mb_per_s"], err = scpioProbe(tr, texts); err != nil {
			return nil, err
		}
		if m["resolve.ms"], m["resolve.cold_ms"], err = mr.resolveProbe(tr); err != nil {
			mr.fail("resolve probe: %v", err)
		}
		path := filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		info["spans"] = path
	}
	return &report{metrics: m, attempted: len(res), failed: mr.failed, failures: mr.failures, info: info}, nil
}
