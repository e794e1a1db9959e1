package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ucp"
	"ucp/internal/solvecache"
)

// biggerProblem is tinyProblem plus a redundant superset row — close
// enough for the delta path to reuse the parent state wholesale.
const biggerProblem = "p 4 3\nc 2 1 3\nr 0 1\nr 1 2\nr 0 2\nr 0 1 2\n"

// TestKeepParentChain: a keep solve returns a solve_id; a follow-up
// naming it as parent re-solves incrementally with the same answer a
// cold solve gives, and /stats reports the resolve counters.
func TestKeepParentChain(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := ts.Client()

	resp, r := postSolve(t, c, ts.URL, &Request{Problem: tinyProblem, Keep: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keep solve: status %d (%s)", resp.StatusCode, r.Error)
	}
	if r.SolveID == "" {
		t.Fatal("keep solve returned no solve_id")
	}

	resp2, r2 := postSolve(t, c, ts.URL, &Request{Problem: biggerProblem, Parent: r.SolveID})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("parent solve: status %d (%s)", resp2.StatusCode, r2.Error)
	}
	if r2.SolveID == "" {
		t.Fatal("parent solve returned no solve_id (keep is implied)")
	}
	// The incremental answer must match the from-scratch one.
	respCold, cold := postSolve(t, c, ts.URL, &Request{Problem: biggerProblem})
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d", respCold.StatusCode)
	}
	if r2.Cost != cold.Cost || r2.LB != cold.LB {
		t.Fatalf("incremental (cost %d, LB %v) != cold (cost %d, LB %v)",
			r2.Cost, r2.LB, cold.Cost, cold.LB)
	}
	p, err := ucp.ReadProblem(strings.NewReader(biggerProblem))
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsCover(r2.Solution) {
		t.Fatalf("incremental solve returned non-cover %v", r2.Solution)
	}

	// An unknown parent id degrades to a from-scratch solve, not an
	// error.
	resp3, r3 := postSolve(t, c, ts.URL, &Request{Problem: biggerProblem, Parent: "s999"})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("unknown parent: status %d (%s)", resp3.StatusCode, r3.Error)
	}
	if r3.Cost != cold.Cost {
		t.Fatalf("unknown-parent solve cost %d, want %d", r3.Cost, cold.Cost)
	}

	// /stats surfaces the resolve object and the cache counters with
	// their wire names.
	sr, err := c.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	raw, err := io.ReadAll(sr.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Cache struct {
			Hits   *int64 `json:"hits"`
			Dedups *int64 `json:"dedups"`
		} `json:"cache"`
		Resolve ResolveStats `json:"resolve"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if st.Cache.Hits == nil || st.Cache.Dedups == nil {
		t.Fatalf("cache counters missing their wire names: %s", raw)
	}
	if st.Resolve.Resolves != 1 || st.Resolve.ParentHits != 1 {
		t.Fatalf("resolve counters wrong: %+v", st.Resolve)
	}
	if st.Resolve.UnknownParents != 1 {
		t.Fatalf("unknown_parents = %d, want 1", st.Resolve.UnknownParents)
	}
	if st.Resolve.Kept != 3 {
		t.Fatalf("kept = %d, want 3", st.Resolve.Kept)
	}
	if st.Resolve.CompsReused > 0 && st.Resolve.ReplayFraction == 0 {
		t.Fatalf("replay_fraction missing: %+v", st.Resolve)
	}
}

// TestKeepValidation: keep/parent are rejected for incompatible
// solvers and formats at decode time.
func TestKeepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := map[string]string{
		"keep with exact":  `{"problem":"p 1 1\nr 0\n","solver":"exact","keep":true}`,
		"parent with pla":  `{"problem":".i 1\n.o 1\n1 1\n.e\n","format":"pla","parent":"s1"}`,
		"keep with greedy": `{"problem":"p 1 1\nr 0\n","solver":"greedy","keep":true}`,
	}
	for name, body := range cases {
		resp, r := postRaw(t, ts.Client(), ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", name, resp.StatusCode, r.Error)
		}
	}
}

// TestKeepStoreLRU: the retained states are bounded and expire the
// oldest ids first; ids the server cannot have issued miss.
func TestKeepStoreLRU(t *testing.T) {
	s := &Server{keeps: solvecache.NewArena(maxKeptStates)}
	var first string
	for i := 0; i <= maxKeptStates; i++ {
		id := s.keepID(nil)
		if i == 0 {
			first = id
		}
	}
	if n := s.keeps.Stats().Entries; n != maxKeptStates {
		t.Fatalf("entries = %d, want %d", n, maxKeptStates)
	}
	if _, ok := s.kept(first); ok {
		t.Fatalf("oldest id %s should have been evicted", first)
	}
	last := "s" + strconv.Itoa(maxKeptStates+1)
	if _, ok := s.kept(last); !ok {
		t.Fatalf("newest id %s missing", last)
	}
	for _, id := range []string{"s065", "s", "x65", "65", "s+65", "s-1"} {
		if _, ok := s.kept(id); ok {
			t.Errorf("id %q resolved to a retained state", id)
		}
	}
}
