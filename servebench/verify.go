package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"snapdyn/internal/cc"
	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/sssp"
	"snapdyn/internal/traversal"
)

// oracle computes the reply every request should get, directly from
// the kernels on one pinned snapshot, and checks served replies
// against it: integer results bit for bit, the clustering mean bit for
// bit (the server sums it in id order on every layout), and PageRank
// within the documented tolerance band.
type oracle struct {
	g     *csr.Graph
	epoch uint64

	levels map[uint32]*traversal.Result
	ranks  []float64
	clus   *qserve.ClusteringReply
	comps  *qserve.ComponentsReply
}

func newOracle(g *csr.Graph, epoch uint64) *oracle {
	return &oracle{g: g, epoch: epoch, levels: map[uint32]*traversal.Result{}}
}

// envelope is the v1 reply frame, with the kind's reply left raw.
type envelope struct {
	Kind  string          `json:"kind"`
	Epoch uint64          `json:"epoch"`
	Cache string          `json:"cache"`
	Data  json.RawMessage `json:"data"`
}

// check compares one served v1 reply with the oracle's answer.
func (o *oracle) check(path string, body []byte) error {
	kind, q, err := splitPath(path)
	if err != nil {
		return err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: undecodable reply %q: %v", path, body, err)
	}
	if env.Kind != kind || env.Epoch != o.epoch {
		return fmt.Errorf("%s: served kind %q at epoch %d, want %q at epoch %d", path, env.Kind, env.Epoch, kind, o.epoch)
	}
	want, err := o.want(kind, q)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if kind == "pagerank" {
		return o.checkPageRank(path, env.Data, want.(qserve.PageRankReply))
	}
	got, err := decodeLike(want, env.Data)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if got != want {
		return fmt.Errorf("%s: served %+v, kernels give %+v", path, got, want)
	}
	return nil
}

func splitPath(path string) (string, url.Values, error) {
	p, rawq, _ := strings.Cut(path, "?")
	kind, ok := strings.CutPrefix(p, "/v1/query/")
	if !ok {
		return "", nil, fmt.Errorf("%s: not a v1 query path", path)
	}
	q, err := url.ParseQuery(rawq)
	return kind, q, err
}

// decodeLike decodes data into a value of want's type.
func decodeLike(want any, data []byte) (any, error) {
	p := reflect.New(reflect.TypeOf(want))
	err := json.Unmarshal(data, p.Interface())
	return p.Elem().Interface(), err
}

func vertex(q url.Values, name string) (uint32, error) {
	x, err := strconv.ParseUint(q.Get(name), 10, 32)
	return uint32(x), err
}

// want is the oracle's reply for one request.
func (o *oracle) want(kind string, q url.Values) (any, error) {
	switch kind {
	case "bfs", "khop":
		s, err := vertex(q, "src")
		if err != nil {
			return nil, err
		}
		r := o.bfs(s)
		if kind == "bfs" {
			return qserve.BFSReply{Src: s, Reached: r.Reached, Levels: r.Levels, Epoch: o.epoch}, nil
		}
		k, err := vertex(q, "k")
		if err != nil {
			return nil, err
		}
		reached := 0
		for _, l := range r.Level {
			if l != traversal.NotVisited && uint32(l) <= k {
				reached++
			}
		}
		return qserve.KHopReply{Src: s, K: k, Reached: reached, Epoch: o.epoch}, nil
	case "sssp":
		s, err := vertex(q, "src")
		if err != nil {
			return nil, err
		}
		rep := qserve.SSSPReply{Src: s, Epoch: o.epoch}
		for _, d := range sssp.Dijkstra(o.g, edge.ID(s), sssp.LabelWeights) {
			if d != sssp.Inf {
				rep.Reached++
				rep.MaxDist = max(rep.MaxDist, d)
			}
		}
		return rep, nil
	case "connected":
		u, err := vertex(q, "u")
		if err != nil {
			return nil, err
		}
		v, err := vertex(q, "v")
		if err != nil {
			return nil, err
		}
		live := q.Get("live") == "1"
		rep := qserve.ConnReply{U: u, V: v, Epoch: o.epoch, Live: live, Connected: true}
		if u != v {
			lvl := o.bfs(u).Level[v]
			rep.Connected, rep.Hops = lvl != traversal.NotVisited, lvl
			if !rep.Connected || live {
				rep.Hops = -1
			}
		}
		return rep, nil
	case "components":
		if o.comps == nil {
			comp := cc.Components(1, o.g)
			_, largest := cc.LargestOf(1, cc.Census(1, comp))
			o.comps = &qserve.ComponentsReply{Components: cc.Count(comp), LargestSize: largest, Epoch: o.epoch}
		}
		return *o.comps, nil
	case "clustering":
		if o.clus == nil {
			c := cluster.Compute(1, o.g)
			o.clus = &qserve.ClusteringReply{Triangles: c.TotalTriangles, AvgLocal: c.GlobalAverage,
				Counted: simpleDegree2(o.g), Epoch: o.epoch}
		}
		return *o.clus, nil
	case "pagerank":
		tol := qserve.DefaultPageRankTol
		if t := q.Get("tol"); t != "" {
			var err error
			if tol, err = strconv.ParseFloat(t, 64); err != nil {
				return nil, err
			}
		}
		if o.ranks == nil {
			o.ranks = densePageRank(o.g, 200)
		}
		rep := qserve.PageRankReply{Tol: tol, Epoch: o.epoch}
		for _, r := range o.ranks {
			rep.SumRank += r
			rep.MaxRank = max(rep.MaxRank, r)
		}
		return rep, nil
	}
	return nil, fmt.Errorf("oracle has no kernel for kind %q", kind)
}

// checkPageRank accepts a reply whose aggregates lie within
// 10·n·tol/(1-d) of the dense fixed point: each vertex keeps less than
// tol of unpushed residual, so n·tol/(1-d) bounds any aggregate's
// error, with 10x slack.
func (o *oracle) checkPageRank(path string, data []byte, want qserve.PageRankReply) error {
	var got qserve.PageRankReply
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	band := 10 * float64(o.g.N) * want.Tol / (1 - qserve.PageRankDamping)
	if got.Tol != want.Tol || got.Epoch != want.Epoch || got.Iterations <= 0 ||
		math.Abs(got.SumRank-want.SumRank) > band || math.Abs(got.MaxRank-want.MaxRank) > band {
		return fmt.Errorf("%s: served %+v, dense reference sum %v max %v (band %v)",
			path, got, want.SumRank, want.MaxRank, band)
	}
	return nil
}

func (o *oracle) bfs(src uint32) *traversal.Result {
	r, ok := o.levels[src]
	if !ok {
		r = traversal.BFS(1, o.g, edge.ID(src))
		o.levels[src] = r
	}
	return r
}

// simpleDegree2 counts vertices with at least two distinct neighbours
// other than themselves: the vertices a local clustering coefficient
// is defined for.
func simpleDegree2(g *csr.Graph) int {
	count := 0
	var nb []uint32
	for u := 0; u < g.N; u++ {
		adj, _ := g.Neighbors(edge.ID(u))
		nb = append(nb[:0], adj...)
		slices.Sort(nb)
		distinct := 0
		for i, v := range nb {
			if v != uint32(u) && (i == 0 || nb[i-1] != v) {
				distinct++
			}
		}
		if distinct >= 2 {
			count++
		}
	}
	return count
}

// densePageRank iterates r' = (1-d) + d·AᵀD⁻¹r, the fixed point the
// server's push solver converges to, with dangling mass dropped.
func densePageRank(g *csr.Graph, iters int) []float64 {
	const d = qserve.PageRankDamping
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 - d
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 1 - d
		}
		for u := 0; u < g.N; u++ {
			adj, _ := g.Neighbors(edge.ID(u))
			if len(adj) == 0 {
				continue
			}
			push := d * rank[u] / float64(len(adj))
			for _, v := range adj {
				next[v] += push
			}
		}
		rank, next = next, rank
	}
	return rank
}

// sameArcs reports whether two arc lists hold the same multiset of
// (u, v, t) arcs. It sorts both.
func sameArcs(a, b []edge.Edge) bool {
	cmp := func(x, y edge.Edge) int {
		if x.U != y.U {
			return int(x.U) - int(y.U)
		}
		if x.V != y.V {
			return int(x.V) - int(y.V)
		}
		return int(x.T) - int(y.T)
	}
	slices.SortFunc(a, cmp)
	slices.SortFunc(b, cmp)
	return slices.Equal(a, b)
}
