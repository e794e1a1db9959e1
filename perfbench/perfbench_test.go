package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestInputsDeterministicInSeed(t *testing.T) {
	a, err := plaCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := plaCorpus(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("plaCorpus differs between two calls at one seed")
	}
	if c, _ := plaCorpus(4); reflect.DeepEqual(a, c) {
		t.Error("plaCorpus ignores the seed")
	}

	x, err := buildCores(3)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := buildCores(3)
	if !reflect.DeepEqual(x, y) {
		t.Error("buildCores differs between two calls at one seed")
	}
	if z, _ := buildCores(4); reflect.DeepEqual(x.problems, z.problems) || x.stream == z.stream {
		t.Error("buildCores ignores the seed")
	}

	p, err := buildMix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := buildMix(3, 2)
	if !reflect.DeepEqual(p, q) {
		t.Error("buildMix differs between two calls at one seed")
	}
	if r, _ := buildMix(4, 2); reflect.DeepEqual(p, r) {
		t.Error("buildMix ignores the seed")
	}
}

func TestMixScheduleShape(t *testing.T) {
	plan, err := buildMix(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.reqs) != int(mixRate*10) {
		t.Fatalf("%d requests, want %d", len(plan.reqs), int(mixRate*10))
	}
	count := map[mixKind]int{}
	for i, r := range plan.reqs {
		count[r.kind]++
		if i > 0 && r.at < plan.reqs[i-1].at {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if r.origin >= i {
			t.Fatalf("request %d refers to a later request %d", i, r.origin)
		}
		if r.kind == kindRepeat && !bytes.Equal(r.body, plan.reqs[r.origin].body) {
			t.Fatalf("repeat %d does not repeat its original's bytes", i)
		}
		if r.kind == kindChain && r.origin >= 0 {
			parent := plan.reqs[r.origin].prob
			if !reflect.DeepEqual(r.prob.Rows[:len(parent.Rows)], parent.Rows) || len(r.prob.Rows) != len(parent.Rows)+1 {
				t.Fatalf("chain edit %d is not its parent plus one row", i)
			}
			row := r.prob.Rows[len(parent.Rows)]
			if row[0]/chainBlockCols != row[len(row)-1]/chainBlockCols {
				t.Fatalf("chain edit %d adds row %v spanning blocks", i, row)
			}
		}
	}
	for k := range mixShare {
		if count[mixKind(k)] == 0 {
			t.Errorf("no %s requests in the schedule", kindNames[k])
		}
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	got := tailOf(xs)
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond || got.Percentile != 90 || got.Samples != 100 || got.Value != 90 {
		t.Errorf("tail of 1..100 = %+v with %d beyond, want value 90 at p90 with 10 beyond", got, beyond)
	}
	// One sample more moves the percentile up: still 10 beyond.
	xs = append(xs, 101)
	if got := tailOf(xs); got.Value != 91 || got.Samples != 101 {
		t.Errorf("tail of 1..101 = %+v, want value 91", got)
	}
	if got := tailOf([]float64{3, 1, 2}); got.Value != 3 || got.Percentile != 100 {
		t.Errorf("tail of 3 samples = %+v, want the maximum", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Start: 70, End: 80, Parent: 0},
		{Name: "d", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 30 - 8, 20, 10, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestCPUNow checks what the timing metrics rest on: the process's
// CPU time grows with work and not with waiting.
func TestCPUNow(t *testing.T) {
	c0 := cpuNow()
	time.Sleep(50 * time.Millisecond)
	slept := cpuNow() - c0
	c1, x := cpuNow(), 1.0
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	busy := cpuNow() - c1
	if slept > 10*time.Millisecond || busy < 25*time.Millisecond {
		t.Errorf("CPU time %v over a 50 ms sleep and %v over 50 ms of work (x=%v)", slept, busy, x)
	}
}

func TestOrderSpreadsRepeatedJobs(t *testing.T) {
	jobs := []job{{name: "big0"}, {name: "a", reps: replicaReps}, {name: "big1"}, {name: "b", reps: replicaReps}}
	got := order(jobs, false)
	count := map[int]int{}
	for _, i := range got {
		count[i]++
	}
	if count[0] != 1 || count[2] != 1 || count[1] != replicaReps || count[3] != replicaReps {
		t.Errorf("untraced order %v: want each large job once, each repeated job %d times", got, replicaReps)
	}
	if want := []int{1, 3, 0, 1, 3, 2}; !reflect.DeepEqual(got[:6], want) {
		t.Errorf("untraced order starts %v, want %v", got[:6], want)
	}
	if got := order(jobs, true); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("traced order %v, want every job once in order", got)
	}
}

func TestMedianOfMedians(t *testing.T) {
	groups := [][]float64{{5, 1, 3}, {}, {10, 20}, {2}}
	if got := medianOfMedians(groups); got != 3 {
		t.Errorf("median of medians 3, 15, 2 = %v, want 3", got)
	}
	if groups[0][0] != 5 {
		t.Error("medianOfMedians reordered its input")
	}
}

func TestProbeMatches(t *testing.T) {
	answers := []*answer{{CoreRows: 3}, {CoreRows: 0}}
	if !probeMatches([]int{3, 0}, answers) {
		t.Error("equal core sizes reported as a mismatch")
	}
	if probeMatches([]int{3, 1}, answers) || probeMatches([]int{3}, answers) || probeMatches([]int{3, 0}, []*answer{answers[0], nil}) {
		t.Error("a differing, missing or failed core size reported as a match")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the declarations:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the declarations")
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if declared[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		declared[m.Name] = true
	}
	for _, name := range exactRepeat {
		if !declared[name] {
			t.Errorf("exact-repeat counter %s is not a declared metric", name)
		}
	}
}

// TestEveryWorkloadProducesExactlyTheDeclaredMetrics runs each
// workload briefly in both modes: every declared metric must appear,
// nothing undeclared may, every answer must check, and a second run
// at the same seed must repeat the exact counters.
func TestEveryWorkloadProducesExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := endToEnd
			if trace == "1" {
				want = perLayer()
			}
			var wantNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
			}
			sort.Strings(wantNames)
			for rep := 0; rep < 2; rep++ {
				var buf bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "9", "--seconds", "0.05", "--trace", trace, "--out", out}
				if err := run(args, &buf); err != nil {
					t.Fatalf("%s trace %s: %v", w.name, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace %s run %d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, rep, res.Correct, res.Attempted, res.Failed, lines[0])
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, wantNames) {
					t.Errorf("%s trace %s: metrics %v, declared %v", w.name, trace, got, wantNames)
				}
			}
		}
	}
}
