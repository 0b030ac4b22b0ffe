package main

import (
	"math"
	"sort"
	"strconv"

	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

// entry is one weighted request shape of a workload's query mix: a
// registered qserve kind plus the wire-form query string it is sent
// with. u and v are the endpoints the workload's vertex picker chose;
// shapes that take no vertex ignore them.
type entry struct {
	kind   string
	weight float64
	query  func(u, v uint32) string
}

func src(u, _ uint32) string  { return "src=" + itoa(u) }
func pair(u, v uint32) string { return "u=" + itoa(u) + "&v=" + itoa(v) }
func none(_, _ uint32) string { return "" }

// hotMix covers every registered kind, plus the two parameterised
// shapes that have their own cache keys or paths: live connectivity
// (never cached) and PageRank at a non-default tolerance.
var hotMix = []entry{
	{"bfs", .20, src},
	{"sssp", .15, src},
	{"connected", .15, pair},
	{"connected", .10, func(u, v uint32) string { return pair(u, v) + "&live=1" }},
	{"khop", .15, func(u, _ uint32) string { return src(u, 0) + "&k=2" }},
	{"components", .05, none},
	{"clustering", .05, none},
	{"pagerank", .075, none},
	{"pagerank", .075, func(_, _ uint32) string { return "tol=0.0001" }},
}

// coldMix leaves out clustering and PageRank: recomputing them after
// every refresh would saturate both cores on their own.
var coldMix = []entry{
	{"bfs", .35, src},
	{"sssp", .15, src},
	{"connected", .20, pair},
	{"connected", .08, func(u, v uint32) string { return pair(u, v) + "&live=1" }},
	{"khop", .18, func(u, _ uint32) string { return src(u, 0) + "&k=2" }},
	{"components", .04, none},
}

func itoa(u uint32) string { return strconv.FormatUint(uint64(u), 10) }

// path renders a request as the v1 route the server generates from the
// registry.
func (e entry) path(u, v uint32) string {
	p := "/v1/query/" + e.kind
	if q := e.query(u, v); q != "" {
		p += "?" + q
	}
	return p
}

// picker draws entries of a mix by weight.
type picker struct {
	mix []entry
	cdf []float64
}

func newPicker(mix []entry) picker {
	cdf := make([]float64, len(mix))
	var sum float64
	for i, e := range mix {
		sum += e.weight
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return picker{mix: mix, cdf: cdf}
}

func (p picker) pick(r *xrand.State) entry {
	i := sort.SearchFloat64s(p.cdf, r.Float64())
	if i == len(p.cdf) {
		i--
	}
	return p.mix[i]
}

// zipf draws ranks in [0, n) with P(r) proportional to 1/(r+1)^s by
// inverting the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) rank(r *xrand.State) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i == len(z.cdf) {
		i--
	}
	return i
}

// hotZipfS is the source skew of hot-reads.
const hotZipfS = 1.2

// hotSequence is one hot-reads client's request cycle: count paths
// drawn from hotMix with Zipf-ranked endpoints from pool. A
// connectivity pair is a pool vertex and its successor in the pool, so
// the pair set, like the source set, has len(pool) keys.
func hotSequence(seed uint64, pool []uint32, count int) []string {
	r := xrand.New(seed)
	p := newPicker(hotMix)
	z := newZipf(len(pool), hotZipfS)
	out := make([]string, count)
	for i := range out {
		e := p.pick(r)
		k := z.rank(r)
		out[i] = e.path(pool[k], pool[(k+1)%len(pool)])
	}
	return out
}

// hotKeys lists every distinct request hot-reads can send: the set the
// warm-up requests once so the timed window sees only cache hits.
func hotKeys(pool []uint32) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range hotMix {
		for k := range pool {
			p := e.path(pool[k], pool[(k+1)%len(pool)])
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// coldQuery draws one cold-reads request with endpoints uniform over
// all n vertices.
func coldQuery(r *xrand.State, p picker, n int) string {
	e := p.pick(r)
	u := r.Uint32n(uint32(n))
	v := r.Uint32n(uint32(n))
	return e.path(u, v)
}

// churn produces sliding-window update batches: every batch inserts
// new R-MAT edges and deletes the oldest edges of the bootstrap graph,
// three inserts per delete, so the graph grows by half a batch per
// batch and keeps its degree distribution. Deletes never touch an edge
// the benchmark inserted.
type churn struct {
	boot  []edge.Edge
	fresh []edge.Edge
	nb    int // next bootstrap edge to delete
	nf    int // next fresh edge to insert
}

// batch returns the next size updates, inserts first.
func (c *churn) batch(size int) []edge.Update {
	del := size / 4
	ins := size - del
	out := make([]edge.Update, 0, size)
	for i := 0; i < ins; i++ {
		out = append(out, edge.Update{Edge: c.fresh[c.nf%len(c.fresh)], Op: edge.Insert})
		c.nf++
	}
	for i := 0; i < del; i++ {
		out = append(out, edge.Update{Edge: c.boot[c.nb%len(c.boot)], Op: edge.Delete})
		c.nb++
	}
	return out
}

// ingestBody renders a batch in the /ingest wire form.
func ingestBody(batch []edge.Update) []byte {
	b := make([]byte, 0, 40*len(batch))
	b = append(b, '[')
	for i, u := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendUint(b, uint64(u.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(u.V), 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendUint(b, uint64(u.T), 10)
		if u.Op == edge.Delete {
			b = append(b, `,"op":"delete"`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}
