package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/serve"
)

// ucpd_mix drives an in-process serve.Server on loopback with an open
// loop: arrivals are due at seeded times whatever the server does,
// from at most nproc sender goroutines over at most nproc connections,
// and every latency runs from the request's due time, so a stall also
// charges the requests queued behind it.

// No record of real ucpd traffic exists, so the rate, the shares of
// the request kinds and their sizes below are assumptions.  Each is
// chosen for what it makes the run measure, as its comment says.

// mixRate is the offered load, requests per second.  It was chosen
// once so that the server, on the one core the benchmark runs on, is
// about a fifth busy at the commit that introduced this benchmark
// (server_busy in the info line), and is frozen so
// later commits are measured at the same load.  At twice this rate the
// latency tail sat at the latency limit, and a host that took half the
// core away would have turned the SLO share into a measure of the host.
const mixRate = 15.0

// mixLimit is the per-request latency limit: a response later than
// this, refused (429/503), failed or wrong misses the SLO.
const mixLimit = 250 * time.Millisecond

// mixTimeout bounds one request, client and server side.
const mixTimeout = 10 * time.Second

// mixMinGap is how much earlier (in arrivals) the request a repeat or
// an edit refers to must be due, so that it has usually been answered.
const mixMinGap = int(mixRate)

// Cold requests are cyclic cores of 60-80 rows, the size the server
// solves in tens of milliseconds.  Every mixBigEvery-th is a
// mixBigRows-row matrix, several times the work of the rest.  They set
// the tail: with about thirty of them in a run, the tail (the eleventh
// highest cost) rests on their middle, not on the few largest.
const (
	mixBigEvery = 3
	mixBigRows  = 150
)

// chainLen is the number of requests in one keep → parent edit chain:
// a keep solve and chainLen-1 edits, each adding one row.
const chainLen = 5

// A chain's first matrix is block diagonal: chainBlocks independent
// cyclic cores of chainBlockRows rows over chainBlockCols columns, and
// each edit adds a row inside one block.  An incremental re-solve then
// replays the reductions and re-solves one block of eight, which takes
// about a fifth of a cold solve of the child, the ratio the repository's
// own delta benchmark reports for a one-row edit; on a single cyclic
// core every edit changes the only block and the re-solve saves
// nothing.
const (
	chainBlocks    = 8
	chainBlockRows = 40
	chainBlockCols = 26
)

type mixKind int

const (
	kindCold     mixKind = iota // a matrix the server has not seen
	kindRepeat                  // the exact bytes of an earlier cold request
	kindPermuted                // an earlier cold matrix, rows and columns relabelled
	kindChain                   // a keep solve, or an edit of the previous chain step
	kindPLA                     // a small two-level minimisation
)

var kindNames = [...]string{"cold", "repeat", "permuted", "chain", "pla"}

// mixShare is each kind's exact share of the arrivals.  Chains are the
// largest share and four in five chain requests are edits, so edits
// are 36% of the traffic; repeats and PLA requests, the fastest kinds,
// are 30%.  The median request is then an incremental re-solve, so a
// regression in the resolve path, in the cache or in the server's
// per-request work moves solve_p50_ms.  Cold solves (25%) and chain
// roots (9%) carry the tail.
var mixShare = [...]float64{0.25, 0.10, 0.10, 0.45, 0.10}

// mixPool seeds the matrices and functions every run draws in turn.
const mixPool = 0x5eed

// mixReq is one scheduled request.
type mixReq struct {
	at     time.Duration // due time, from the start of the run
	kind   mixKind
	req    serve.Request
	body   []byte // encoded req; chain children encode at send time
	prob   *matrix.Problem
	f      *pla.File
	origin int // repeats: the cold request repeated; chain children: the previous step; else -1
}

// mixPlan is the whole schedule of one run.
type mixPlan struct {
	reqs []mixReq
}

func mixRequest(format, text string) serve.Request {
	return serve.Request{Format: format, Problem: text, NumIter: mixOptions.NumIter, Seed: mixOptions.Seed,
		TimeoutMS: mixTimeout.Milliseconds()}
}

// buildMix draws the schedule: arrival times are seconds·rate points
// placed uniformly at random over the window (a Poisson process
// conditioned on its count), and kinds are dealt in exact shares.
// The seed draws the times, the order of the kinds, what each repeat
// repeats and every relabelling; the k-th cold matrix, chain (root and
// edits) and PLA function of a run are the same at every seed
// (mixPool).  Solve times of fresh random matrices differ several-fold,
// and how much an edit costs to re-solve depends on where its row
// lands, so with content drawn from the seed the median latency moved
// by a tenth between seeds on content alone; this way seeds compare
// like with like, as in pla_minimize.
func buildMix(seed int64, seconds float64) (*mixPlan, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "mix", 0)))
	n := int(math.Round(mixRate * seconds))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	kinds := make([]mixKind, 0, n)
	for k, share := range mixShare {
		for c := 0; c < int(math.Round(share*float64(n))) && len(kinds) < n; c++ {
			kinds = append(kinds, mixKind(k))
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, kindCold)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	plan := &mixPlan{reqs: make([]mixReq, n)}
	var colds []int
	var roots, plas int
	type chain struct{ id, last, steps int }
	var open []chain
	for i := 0; i < n; i++ {
		r := &plan.reqs[i]
		r.at = time.Duration(at[i] * float64(time.Second))
		r.kind, r.origin = kinds[i], -1
		rr := rand.New(rand.NewSource(subSeed(seed, "req", i)))
		if r.kind == kindRepeat || r.kind == kindPermuted {
			eligible := sort.SearchInts(colds, i-mixMinGap+1)
			if eligible == 0 {
				r.kind = kindCold
			} else {
				r.origin = colds[rr.Intn(eligible)]
			}
		}
		var err error
		switch r.kind {
		case kindCold:
			k := len(colds)
			nr := 60 + rand.New(rand.NewSource(subSeed(mixPool, "cold-rows", k))).Intn(21)
			if k%mixBigEvery == mixBigEvery-1 {
				nr = mixBigRows
			}
			r.prob = benchmarks.CyclicCovering(subSeed(mixPool, "cold", k), nr, nr*2/3, 4)
			colds = append(colds, i)
		case kindRepeat:
			r.prob, r.req, r.body = plan.reqs[r.origin].prob, plan.reqs[r.origin].req, plan.reqs[r.origin].body
			continue
		case kindPermuted:
			r.prob = permuted(plan.reqs[r.origin].prob, rr)
		case kindChain:
			k := -1
			for c := range open {
				if open[c].last <= i-mixMinGap {
					k = c
					break
				}
			}
			if k < 0 {
				r.prob = blockCovering(subSeed(mixPool, "chain", roots), chainBlocks, chainBlockRows, chainBlockCols)
				open = append(open, chain{id: roots, last: i, steps: 1})
				roots++
			} else {
				r.origin = open[k].last
				edit := rand.New(rand.NewSource(subSeed(mixPool, "edit", open[k].id*chainLen+open[k].steps)))
				r.prob = withBlockRow(plan.reqs[r.origin].prob, edit, chainBlockCols)
				open[k].last, open[k].steps = i, open[k].steps+1
				if open[k].steps == chainLen {
					open = append(open[:k], open[k+1:]...)
				}
			}
		case kindPLA:
			r.f = benchmarks.RandomPLA(subSeed(mixPool, "pla", plas), 9, 2, 24, 0.4, 2)
			plas++
			var b strings.Builder
			if err = r.f.Write(&b); err != nil {
				return nil, err
			}
			r.req = mixRequest("pla", b.String())
		}
		if r.prob != nil {
			text, err := problemText(r.prob)
			if err != nil {
				return nil, err
			}
			r.req = mixRequest("ucp", text)
			r.req.Keep = r.kind == kindChain
		}
		if r.kind == kindChain && r.origin >= 0 {
			continue // encoded at send time, with the parent's id
		}
		if r.body, err = json.Marshal(&r.req); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// mixServer is the in-process service and a client limited to nproc
// connections.
type mixServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when Serve returns
	url  string
	tr   *http.Transport
	hc   *http.Client
}

func startServer(spillDir string) (*mixServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	s := &mixServer{srv: serve.New(serve.Config{SpillDir: spillDir}), done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	s.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	s.hc = &http.Client{Transport: s.tr, Timeout: mixTimeout + 2*time.Second}
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
// A request the client gave up on may still be solving, for at most
// its own budget, so the drain may take that long.
func (s *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), mixTimeout+5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	s.tr.CloseIdleConnections()
	return err
}

func (s *mixServer) post(body []byte) (int, serve.Response, error) {
	var resp serve.Response
	hr, err := s.hc.Post(s.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return hr.StatusCode, resp, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return hr.StatusCode, resp, fmt.Errorf("decode response: %w", err)
	}
	return hr.StatusCode, resp, nil
}

// warmUp opens every connection with one cold solve each, on inputs
// outside the schedule.
func (s *mixServer) warmUp(seed int64) error {
	var bodies [][]byte
	for i := 0; i < runtime.NumCPU(); i++ {
		text, err := problemText(benchmarks.CyclicCovering(subSeed(seed, "warm", i), 60, 40, 4))
		if err != nil {
			return err
		}
		b, err := json.Marshal(mixRequest("ucp", text))
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			if st, _, err := s.post(b); err != nil || st != http.StatusOK {
				errs[i] = fmt.Errorf("warm-up request: status %d: %v", st, err)
			}
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mixResult is what happened to one scheduled request.
type mixResult struct {
	done   chan struct{}
	status int
	resp   serve.Response
	err    error
	lat    time.Duration // from due time to the decoded response
	cpu    time.Duration // its share of the process's CPU time (cpuLedger)
	sent   time.Time
	client time.Duration // from send to the decoded response
	lag    time.Duration // how late the generator sent it
	traced bool
}

// drive plays the schedule against the server and returns what
// happened to each request, the span from the start of the schedule to
// the last response, the process's CPU time over that span less the
// reference samples', and the share of the machine's CPU time the
// hypervisor stole in it.  The reference is sampled at the start, at
// the end, and whenever the server is idle at a tick of refTick.
// With a tracer every odd-numbered arrival is traced, so the traced and
// untraced requests see the same traffic and server state.
func (s *mixServer) drive(plan *mixPlan, tr *tracer, h *hostSpeed) ([]mixResult, time.Duration, time.Duration, float64) {
	res := make([]mixResult, len(plan.reqs))
	for i := range res {
		res[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var led cpuLedger
	start := time.Now().Add(10 * time.Millisecond)
	h.sample()
	time.Sleep(time.Until(start))
	s0, c0, spent := stealTicks(), cpuNow(), h.spent
	stop, probed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probed)
		led.probe(h, stop)
	}()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.reqs) {
					return
				}
				s.send(plan, res, i, start, tr, &led)
			}
		}()
	}
	wg.Wait()
	span := time.Since(start)
	close(stop)
	<-probed
	cpu := cpuNow() - c0 - (h.spent - spent)
	h.sample()
	return res, span, cpu, stealShare(stealTicks()-s0, span)
}

// refTick is how often an idle server is interrupted for a reference
// sample (about 2% of the run).
const refTick = 250 * time.Millisecond

// probe samples the reference at every refTick at which no request is
// in flight, until stop is closed.  It holds the ledger meanwhile, so
// no request starts during a sample and none is charged for it.
func (l *cpuLedger) probe(h *hostSpeed, stop chan struct{}) {
	t := time.NewTicker(refTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.inflight == 0 {
				h.sample()
				l.last = cpuNow()
			}
			l.mu.Unlock()
		}
	}
}

// cpuLedger shares the process's CPU time among the requests in
// flight: each interval between two sends or responses is split evenly
// between the requests in flight during it.  A request's share is its
// CPU cost, the client's and the server's work for it, which steal and
// waiting for a CPU do not inflate as they do its latency.  The server
// is a fifth busy, so most requests run alone and their share is
// exactly the CPU time they took.
type cpuLedger struct {
	mu       sync.Mutex
	last     time.Duration // CPU time at the last event
	acc      time.Duration // CPU time per request in flight, summed over intervals
	inflight int
}

// move accounts the interval since the last event, adds delta to the
// requests in flight and returns the running per-request total.
func (l *cpuLedger) move(delta int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := cpuNow()
	if l.inflight > 0 {
		l.acc += (now - l.last) / time.Duration(l.inflight)
	}
	l.last = now
	l.inflight += delta
	return l.acc
}

func (s *mixServer) send(plan *mixPlan, res []mixResult, i int, start time.Time, tr *tracer, led *cpuLedger) {
	r, out := &plan.reqs[i], &res[i]
	defer close(out.done)
	due := start.Add(r.at)
	time.Sleep(time.Until(due))
	if i%2 == 0 {
		tr = nil
	}
	out.traced = tr != nil
	root := tr.begin("request."+kindNames[r.kind], -1, int64(i))
	defer tr.end(root)
	body := r.body
	if body == nil { // a chain child: name the previous step as parent
		parent := &res[r.origin]
		<-parent.done
		req := r.req
		req.Keep = true
		req.Parent = parent.resp.SolveID
		var err error
		if body, err = json.Marshal(&req); err != nil {
			out.err = err
			return
		}
	}
	acc := led.move(1)
	sent := time.Now()
	out.sent, out.lag = sent, sent.Sub(due)
	id := tr.begin("http.solve", root, int64(i))
	out.status, out.resp, out.err = s.post(body)
	tr.end(id)
	end := time.Now()
	out.cpu = led.move(-1) - acc
	out.lat, out.client = end.Sub(due), end.Sub(sent)
}

// mixRun is one ucpd_mix measurement.
type mixRun struct {
	plan     *mixPlan
	res      []mixResult
	stats    serve.Stats
	good     int
	failed   int
	failures []string
	allocMB  float64
	span     time.Duration // from the first due time to the last response
	cpu      time.Duration // the process's CPU time over span
	host     *hostSpeed
	from     int     // the run's first reference sample
	factor   float64 // hostSpeed factor of the run
	costSum  int
	gapSum   int
	cold     map[int]coldRef // chain requests: a cold library keep-solve
}

// coldRef is a cold keep-solve of one chain request's matrix: its cost
// and how long it took.
type coldRef struct {
	cost int
	d    time.Duration
}

// coldSolve keep-solves chain request i from scratch with the options
// the server uses, and records the result.
func (m *mixRun) coldSolve(solver *ucp.Solver, i int) coldRef {
	var res *ucp.SCGResult
	d := timed(nil, "", func() { res, _ = solver.SolveSCGKeep(m.plan.reqs[i].prob, mixOptions) })
	ref := coldRef{cost: res.Cost, d: d}
	if m.cold == nil {
		m.cold = map[int]coldRef{}
	}
	m.cold[i] = ref
	return ref
}

// mixOptions are the covering-solve options every matrix request
// carries (mixRequest), as the server applies them.
var mixOptions = ucp.SCGOptions{NumIter: 1, Seed: 1}

func (m *mixRun) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 20 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// verify checks every answer after the run: a matrix answer is a
// cover of its request's matrix with the stated cost and a bound no
// higher; a PLA answer is equivalent to its function; a repeat has its
// original's cost; a chain answer (a kept or incremental solve) has
// the cost of a cold library keep-solve of the same matrix.
func (m *mixRun) verify() {
	solver := ucp.NewSolver(ucp.SolverOptions{ArenaSize: -1})
	for i := range m.res {
		r, out := &m.plan.reqs[i], &m.res[i]
		name := fmt.Sprintf("request %d (%s)", i, kindNames[r.kind])
		if out.err != nil || out.status != http.StatusOK {
			m.fail("%s: status %d: %v %s", name, out.status, out.err, out.resp.Error)
			continue
		}
		resp := out.resp
		if err := checkBound(resp.Cost, resp.LB); err != nil {
			m.fail("%s: %v", name, err)
			continue
		}
		if r.f != nil {
			if err := checkPLA(r.f, resp); err != nil {
				m.fail("%s: %v", name, err)
				continue
			}
		} else if !r.prob.IsCover(resp.Solution) || r.prob.CostOf(resp.Solution) != resp.Cost {
			m.fail("%s: solution is not a cover of cost %d", name, resp.Cost)
			continue
		}
		switch r.kind {
		case kindRepeat, kindPermuted:
			if o := m.res[r.origin]; o.status == http.StatusOK && o.resp.Cost != resp.Cost {
				m.fail("%s: cost %d, its cold solve cost %d", name, resp.Cost, o.resp.Cost)
				continue
			}
		case kindChain:
			if ref := m.coldSolve(solver, i); ref.cost != resp.Cost {
				m.fail("%s: cost %d, a cold keep-solve costs %d", name, resp.Cost, ref.cost)
				continue
			}
		}
		if r.kind != kindRepeat && r.kind != kindPermuted {
			m.costSum += resp.Cost
			m.gapSum += gapOf(resp.Cost, resp.LB)
		}
		if out.lat <= mixLimit {
			m.good++
		}
	}
}

// checkPLA verifies a PLA answer: the cover's cubes implement f.
func checkPLA(f *pla.File, resp serve.Response) error {
	cover := cube.NewCover(f.Space)
	for _, s := range resp.Cover {
		in, out, ok := strings.Cut(s, " ")
		if !ok {
			return fmt.Errorf("malformed cube %q", s)
		}
		c, err := f.Space.ParseCube(in, out)
		if err != nil {
			return err
		}
		cover.Add(c)
	}
	if cover.Len() != resp.Cost {
		return fmt.Errorf("cover has %d products, cost says %d", cover.Len(), resp.Cost)
	}
	if !ucp.Equivalent(f, cover) {
		return fmt.Errorf("cover is not equivalent to the function")
	}
	return nil
}

// latencies returns the due-time latencies (ms) of every request that
// got a response, optionally only those of the requests pick selects.
func (m *mixRun) latencies(pick func(i int) bool) []float64 {
	return m.perRequest(pick, func(r *mixResult) time.Duration { return r.lat })
}

// cpuCosts is latencies for the requests' CPU shares.
func (m *mixRun) cpuCosts(pick func(i int) bool) []float64 {
	return m.perRequest(pick, func(r *mixResult) time.Duration { return r.cpu })
}

func (m *mixRun) perRequest(pick func(i int) bool, of func(*mixResult) time.Duration) []float64 {
	var out []float64
	for i := range m.res {
		r := &m.res[i]
		if r.status == 0 || (pick != nil && !pick(i)) {
			continue
		}
		out = append(out, ms(of(r)))
	}
	return out
}

// kindMedians applies the median to each request kind's figures, with
// chain roots ("chain") and chain edits ("chain_edit") apart, so a run
// shows where the median request falls.
func (m *mixRun) kindMedians(of func(pick func(i int) bool) []float64) map[string]float64 {
	out := map[string]float64{}
	for k, name := range kindNames {
		out[name] = median(of(func(i int) bool {
			r := &m.plan.reqs[i]
			return r.kind == mixKind(k) && (r.kind != kindChain || r.origin < 0)
		}))
	}
	out["chain_edit"] = median(of(func(i int) bool {
		return m.plan.reqs[i].kind == kindChain && m.plan.reqs[i].origin >= 0
	}))
	return out
}

// endToEnd fills the end-to-end metrics from the requests' CPU costs,
// each scaled by the reference samples taken around it, and returns the CPU tail and the wall-clock figures, which the
// shared host moves too much to bound: goodput per second, and the
// median and tail latency from the due time.
func (m *mixRun) endToEnd(met map[string]float64) (tail, map[string]any) {
	n := float64(len(m.res))
	var cpu []float64
	for i := range m.res {
		if r := &m.res[i]; r.status != 0 {
			cpu = append(cpu, ms(r.cpu)*m.host.factorNear(m.from, r.sent.Add(r.client/2)))
		}
	}
	met["solves_per_cpu_s"] = float64(m.good) / (m.cpu.Seconds() * m.factor)
	met["solve_cpu_p50_ms"] = median(append([]float64(nil), cpu...))
	t := tailOf(cpu)
	met["solve_cpu_tail_ms"] = t.Value
	met["slo_met_ratio"] = float64(m.good) / n
	met["cost_sum"] = float64(m.costSum)
	met["gap_sum"] = float64(m.gapSum)
	met["alloc_mb_per_solve"] = m.allocMB / n
	lat := m.latencies(nil)
	return t, map[string]any{"solves_per_s": float64(m.good) / m.span.Seconds(), "cpu_solve_p50_ms": median(m.cpuCosts(nil)),
		"solve_p50_ms": median(append([]float64(nil), lat...)), "solve_tail": tailOf(lat)}
}

// layerMetrics fills the serve, cache, resolve and generator metrics.
func (m *mixRun) layerMetrics(tr *tracer, met map[string]float64) {
	var overhead, elapsed, hits []float64
	var lag []float64
	for i := range m.res {
		r := &m.res[i]
		lag = append(lag, ms(r.lag))
		if r.status != http.StatusOK {
			continue
		}
		overhead = append(overhead, ms(r.client)-float64(r.resp.ElapsedMS))
		elapsed = append(elapsed, float64(r.resp.ElapsedMS))
		if r.resp.CacheHit {
			hits = append(hits, ms(r.client))
		}
	}
	met["serve.overhead_p50_ms"] = median(append([]float64(nil), overhead...))
	met["serve.overhead_tail_ms"] = tailOf(overhead).Value
	met["serve.solve_ms"] = mean(elapsed)
	st := m.stats
	met["serve.rejected_ratio"] = float64(st.RejectedOverload+st.RejectedDraining) / float64(len(m.res))
	met["serve.status_5xx"] = float64(st.Status5xx)
	c := st.Cache
	met["cache.hit_ratio"] = ratio(float64(c.Hits+c.Dedups), float64(c.Hits+c.Dedups+c.Misses))
	met["cache.hit_ms"] = median(hits)
	met["resolve.parent_hits"] = float64(st.Resolve.ParentHits)
	met["resolve.unknown_parents"] = float64(st.Resolve.UnknownParents)
	met["bench.gen_lag_ms"] = tailOf(lag).Value
	met["bench.trace_overhead_pct"] = m.traceOverhead()
	spans := tr.snapshot()
	var self []float64
	for i, d := range selfTimes(spans) {
		if spans[i].Parent < 0 && strings.HasPrefix(spans[i].Name, "request.") {
			self = append(self, ms(d))
		}
	}
	met["pipeline.self_ms"] = median(self)
}

// traceOverhead compares the traced (odd) arrivals with the untraced
// (even) ones, kind by kind, since the kinds' costs differ tenfold and
// the two halves hold slightly different mixes: the per-kind median CPU
// costs, each weighted by its kind's arrivals, summed over kinds,
// traced over untraced, as a percentage above 100.  CPU cost, not
// latency: a latency also holds the queueing behind other requests.
func (m *mixRun) traceOverhead() float64 {
	var plain, traced float64
	for k := range kindNames {
		of := func(tr bool) []float64 {
			return m.cpuCosts(func(i int) bool { return m.plan.reqs[i].kind == mixKind(k) && m.res[i].traced == tr })
		}
		p, t := of(false), of(true)
		if len(p) == 0 || len(t) == 0 {
			continue
		}
		w := float64(len(p) + len(t))
		plain += w * median(p)
		traced += w * median(t)
	}
	return 100 * ratio(traced-plain, plain)
}

// mixProbeLimit bounds how many of the run's distinct matrices the
// layer probes visit.
const mixProbeLimit = 40

// probeInputs returns the first distinct cold matrices of the plan.
func (m *mixRun) probeInputs() ([]*matrix.Problem, []string) {
	var ps []*matrix.Problem
	var texts []string
	for _, r := range m.plan.reqs {
		if r.kind == kindCold && len(ps) < mixProbeLimit {
			ps = append(ps, r.prob)
			texts = append(texts, r.req.Problem)
		}
	}
	return ps, texts
}

// solveInputs solves ps in the library with the options the server
// applies and checks each answer; the answers carry the work counters
// of the traced ucpd_mix run.  A failed check leaves its entry nil.
func (m *mixRun) solveInputs(ps []*matrix.Problem) []*answer {
	out := make([]*answer, len(ps))
	for i, p := range ps {
		o, err := coverOutcome(p, ucp.SolveSCG(p, mixOptions), false)
		if err == nil {
			err = o.verify()
		}
		if err != nil {
			m.fail("library solve of probe input %d: %v", i, err)
			continue
		}
		out[i] = &o.ans
	}
	return out
}

// resolveProbe times, for every chain child of the plan, an
// incremental re-solve from its parent's kept state, against the cold
// keep-solve of the same child that verify made, and checks both give
// the same cost.  It returns the two totals in ms.
func (m *mixRun) resolveProbe(tr *tracer) (resolveMS, coldMS float64, err error) {
	solver := ucp.NewSolver(ucp.SolverOptions{ArenaSize: -1})
	kept := map[int]*ucp.Resolvable{}
	for i, r := range m.plan.reqs {
		if r.kind != kindChain {
			continue
		}
		var res *ucp.SCGResult
		parent, ok := kept[r.origin]
		if r.origin < 0 || !ok {
			res, kept[i] = solver.SolveSCGKeep(r.prob, mixOptions)
			continue
		}
		d := ucp.DeltaBetween(parent.Problem(), r.prob)
		resolveMS += ms(timed(tr, "probe.resolve", func() {
			res, kept[i] = solver.Resolve(d, parent, mixOptions, ucp.ResolveOptions{})
		}))
		cold, ok := m.cold[i]
		if !ok { // the server's answer failed, so verify made none
			cold = m.coldSolve(solver, i)
		}
		coldMS += ms(cold.d)
		if cold.cost != res.Cost {
			return 0, 0, fmt.Errorf("request %d: resolve cost %d, cold cost %d", i, res.Cost, cold.cost)
		}
		delete(kept, r.origin)
	}
	return resolveMS, coldMS, nil
}
