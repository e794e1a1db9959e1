package serve

import (
	"net/http"
	"strconv"
	"strings"

	"ucp"
	"ucp/internal/solvecache"
)

// The keep/parent protocol: a request with `keep` retains the solve's
// state server-side and answers with a `solve_id`; a follow-up request
// naming that id as `parent` is solved incrementally — the server
// reconstructs the edit between the two instances and replays the
// retained reductions and portfolio blocks instead of starting over.
// An expired or unknown id degrades to a from-scratch solve (counted
// in /stats), never an error: the id is a performance hint, not state
// the client may rely on.

// maxKeptStates bounds the retained-state table.  Retained states hold
// the parent's reduced core and per-block multiplier snapshots, so the
// table is deliberately small — an LRU of the most recent chains, not
// a durable store.
const maxKeptStates = 64

// Retained states live in a solvecache.Arena keyed by their id's
// number: ids are generated server-side ("s1", "s2", ...) from
// Server.keepSeq and never reused within a process.

// keepID stores a retained state under a fresh id and returns the id.
func (s *Server) keepID(r *ucp.Resolvable) string {
	n := s.keepSeq.Add(1)
	s.keeps.Put(solvecache.Key{Lo: n}, r)
	return "s" + strconv.FormatUint(n, 10)
}

// kept looks a retained state up by id, refreshing its recency on a
// hit.  An id the server cannot have issued (one that does not
// round-trip through keepID's format, such as "s01") is a miss.
func (s *Server) kept(id string) (*ucp.Resolvable, bool) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil || "s"+strconv.FormatUint(n, 10) != id {
		return nil, false
	}
	v, ok := s.keeps.Get(solvecache.Key{Lo: n})
	if !ok {
		return nil, false
	}
	return v.(*ucp.Resolvable), true
}

// ResolveStats is the /stats `resolve` object: how the incremental
// re-solve path is doing.  The solver-level counters (resolves,
// hits, block reuse) come from the shared ucp.Solver; kept and
// unknown_parents are the service's own keep-protocol counters.
type ResolveStats struct {
	Resolves    int64 `json:"resolves"`     // incremental solves attempted
	ParentHits  int64 `json:"parent_hits"`  // served against a named parent id
	ArenaHits   int64 `json:"arena_hits"`   // parent recovered from the ancestor arena
	ArenaMisses int64 `json:"arena_misses"` // no usable ancestor found
	Fallbacks   int64 `json:"fallbacks"`    // parent unusable (options/problem drift)
	CompsReused int64 `json:"comps_reused"` // portfolio blocks carried over verbatim
	CompsSolved int64 `json:"comps_solved"` // portfolio blocks re-solved
	// ReplayFraction is comps_reused / (comps_reused + comps_solved):
	// the share of cyclic-core work the delta path avoided.
	ReplayFraction float64 `json:"replay_fraction"`
	Kept           int     `json:"kept"`            // retained states resident
	UnknownParents int64   `json:"unknown_parents"` // parent ids not found (expired or bogus)
}

func (s *Server) resolveStats() ResolveStats {
	rs := s.solver.ResolveStats()
	out := ResolveStats{
		Resolves:       rs.Resolves,
		ParentHits:     rs.ParentHits,
		ArenaHits:      rs.ArenaHits,
		ArenaMisses:    rs.ArenaMisses,
		Fallbacks:      rs.Fallbacks,
		CompsReused:    rs.CompsReused,
		CompsSolved:    rs.CompsSolved,
		Kept:           s.keeps.Stats().Entries,
		UnknownParents: s.unknownParents.Load(),
	}
	if n := rs.CompsReused + rs.CompsSolved; n > 0 {
		out.ReplayFraction = float64(rs.CompsReused) / float64(n)
	}
	return out
}

// solveSCGKeep handles the keep/parent variants of an scg solve: the
// state is retained and its id returned; with a parent named, the
// solve replays that parent's state incrementally.  These solves pin
// the explicit reduction pipeline and bypass the cross-solve cache
// (the retained state, not the memoized result, is the product), and
// they emit no streamed incumbents — the final record is unaffected.
func (s *Server) solveSCGKeep(j *job, bud ucp.Budget) (Response, int) {
	bud.IterCap = j.req.IterCap
	opt := ucp.SCGOptions{
		Seed:    j.req.Seed,
		NumIter: j.req.NumIter,
		Budget:  bud,
	}
	var res *ucp.SCGResult
	var keep *ucp.Resolvable
	if j.req.Parent != "" {
		if parent, ok := s.kept(j.req.Parent); ok {
			d := ucp.DeltaBetween(parent.Problem(), j.prob)
			res, keep = s.solver.Resolve(d, parent, opt, ucp.ResolveOptions{})
		} else {
			s.unknownParents.Add(1)
		}
	}
	if res == nil {
		res, keep = s.solver.SolveSCGKeep(j.prob, opt)
	}
	if res.Solution == nil {
		if res.Interrupted {
			err := res.StopReason.Err()
			return Response{Error: err.Error(), Interrupted: true, StopReason: res.StopReason.String()},
				http.StatusGatewayTimeout
		}
		return Response{Error: ucp.ErrInfeasible.Error()}, http.StatusUnprocessableEntity
	}
	return Response{
		Cost:        res.Cost,
		LB:          res.LB,
		Solution:    res.Solution,
		Optimal:     res.ProvedOptimal,
		Interrupted: res.Interrupted,
		StopReason:  stopString(res.Interrupted, res.StopReason),
		SolveID:     s.keepID(keep),
	}, http.StatusOK
}
