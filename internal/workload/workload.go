// Package workload models the serving layer's traffic: skewed source
// popularity (Zipf with tunable exponent, including the s < 1 range
// math/rand's sampler refuses), a weighted query-type mix, and bursty
// open-loop arrivals (an on-off modulated Poisson process), all
// deterministically seeded through internal/xrand so a benchmark run
// is reproducible bit-for-bit from its seed.
//
// It also owns the query-trace format. A trace is JSONL with one
// request per line in wire form — the registered kind and the
// request's URL query string without minEpoch:
//
//	{"kind":"sssp","query":"delta=25&src=7"}
//	{"kind":"connected","query":"live=1&u=1&v=9"}
//
// A Recorder tees every query a live snapserve receives into a trace
// (qserve.QueryRecorder). ReadTrace decodes each line once, through
// qserve.LookupSpec and Spec.Decode, into the same Request the
// synthetic Generator draws, and replay runs each Request with
// Engine.Query — the record/replay loop that makes a production
// regression reproducible from its traffic, for every registered kind.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/url"
	"os"
	"sort"
	"sync"

	"snapdyn/internal/qserve"
	"snapdyn/internal/xrand"
)

// Request is one decoded query: a registered kind and its arguments,
// ready for Engine.Query.
type Request struct {
	Spec *qserve.Spec
	Args qserve.Args
}

// traceLine is one JSONL line of a trace.
type traceLine struct {
	Kind  string `json:"kind"`
	Query string `json:"query"`
}

// Mix weighs the query types. Zero-valued fields get no traffic; an
// all-zero Mix defaults to DefaultMix.
type Mix struct {
	BFS        float64
	SSSP       float64
	Connected  float64
	Components float64
}

// DefaultMix is a read-heavy analysis profile: mostly BFS-shaped
// lookups, some weighted distance queries, occasional pair checks,
// and a rare full-graph component census.
var DefaultMix = Mix{BFS: 0.55, SSSP: 0.25, Connected: 0.18, Components: 0.02}

func (m Mix) total() float64 { return m.BFS + m.SSSP + m.Connected + m.Components }

// Config parameterizes a generator.
type Config struct {
	// Sources is the pool queries draw their vertex operands from.
	Sources []uint32
	// ZipfS is the popularity exponent: the source of popularity rank k is
	// drawn with probability proportional to 1/k^s. 0 is uniform; 0.8
	// is web-like; 1.2 concentrates most traffic on a few hot sources.
	// Any s >= 0 is accepted (math/rand.Zipf requires s > 1; skewed
	// serving traffic lives on both sides of 1).
	ZipfS float64
	// Mix weighs the query types (zero value = DefaultMix).
	Mix Mix
	// Seed makes the stream deterministic; same seed, same queries.
	Seed uint64
}

// Generator draws a deterministic stream of queries. Not safe for
// concurrent use: give each load goroutine its own (Split derives an
// independent child stream).
type Generator struct {
	cfg  Config
	rng  *xrand.State
	cum  []float64 // Zipf rank CDF; nil when uniform
	rank []uint32  // popularity rank -> source vertex id
	mix  [4]float64
}

// NewGenerator builds a generator. The Zipf CDF is one table of
// len(Sources) entries shared by every Split child.
func NewGenerator(cfg Config) *Generator {
	if len(cfg.Sources) == 0 {
		panic("workload: Sources must be non-empty")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultMix
	}
	g := &Generator{cfg: cfg, rng: xrand.New(cfg.Seed)}
	t := cfg.Mix.total()
	g.mix[0] = cfg.Mix.BFS / t
	g.mix[1] = g.mix[0] + cfg.Mix.SSSP/t
	g.mix[2] = g.mix[1] + cfg.Mix.Connected/t
	g.mix[3] = 1
	if cfg.ZipfS > 0 {
		n := len(cfg.Sources)
		g.cum = make([]float64, n)
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += math.Pow(float64(k+1), -cfg.ZipfS)
			g.cum[k] = sum
		}
		for k := range g.cum {
			g.cum[k] /= sum
		}
		// Which sources are hot is an arbitrary property of the graph:
		// scatter the popularity ranks over the pool so rank 1 is not
		// always its first entry.
		perm := make([]int, n)
		g.rng.Perm(perm)
		g.rank = make([]uint32, n)
		for k, i := range perm {
			g.rank[k] = cfg.Sources[i]
		}
	}
	return g
}

// Split derives an independent generator sharing the popularity tables
// — one per load goroutine, deterministic regardless of scheduling.
func (g *Generator) Split() *Generator {
	ng := *g
	ng.rng = g.rng.Split()
	return &ng
}

// source draws one vertex by popularity.
func (g *Generator) source() uint64 {
	if g.cum == nil {
		return uint64(g.cfg.Sources[g.rng.Uint32n(uint32(len(g.cfg.Sources)))])
	}
	u := g.rng.Float64()
	k := sort.SearchFloat64s(g.cum, u)
	if k >= len(g.rank) {
		k = len(g.rank) - 1
	}
	return uint64(g.rank[k])
}

// Next draws the next query. SSSP requests use the engine's heuristic
// bucket width, the serving-friendly choice.
func (g *Generator) Next() Request {
	r := g.rng.Float64()
	switch {
	case r < g.mix[0]:
		return Request{Spec: qserve.SpecBFS, Args: qserve.Args{A: g.source()}}
	case r < g.mix[1]:
		return Request{Spec: qserve.SpecSSSP, Args: qserve.Args{A: g.source()}}
	case r < g.mix[2]:
		u := g.source()
		return Request{Spec: qserve.SpecConnected, Args: qserve.Args{A: u, B: g.source()}}
	default:
		return Request{Spec: qserve.SpecComponents}
	}
}

// Recorder tees queries into a JSONL trace file. It implements
// qserve.QueryRecorder; install with Server.SetRecorder. Writes are
// buffered and serialized; Close flushes (graceful shutdown must call
// it, or the trace tail is lost with the buffer).
type Recorder struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewRecorder creates (truncates) the trace file at path.
func NewRecorder(path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // keep query strings readable: & not \u0026
	return &Recorder{f: f, w: w, enc: enc}, nil
}

// RecordQuery appends one query to the trace. The first write error
// sticks and silences the rest (Close reports it): tracing must never
// take down serving.
func (r *Recorder) RecordQuery(sp *qserve.Spec, query string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(traceLine{Kind: sp.Name(), Query: query}); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Len reports the number of queries recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Close flushes and closes the trace, reporting the first error the
// recorder hit.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.err
	if e := r.w.Flush(); err == nil {
		err = e
	}
	if e := r.f.Close(); err == nil {
		err = e
	}
	return err
}

// ReadTrace decodes a JSONL trace written by Recorder. Blank lines are
// skipped. A line that is not JSON, names an unregistered kind, or
// carries a parameter its kind's decoder rejects is an error naming the
// line number; no line is replayed unchecked.
func ReadTrace(r io.Reader) ([]Request, error) {
	var reqs []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		req, err := decodeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
	}
	return reqs, nil
}

func decodeLine(b []byte) (Request, error) {
	var tl traceLine
	if err := json.Unmarshal(b, &tl); err != nil {
		return Request{}, err
	}
	sp := qserve.LookupSpec(tl.Kind)
	if sp == nil {
		return Request{}, fmt.Errorf("unknown query kind %q", tl.Kind)
	}
	q, err := url.ParseQuery(tl.Query)
	if err != nil {
		return Request{}, fmt.Errorf("%s query %q: %w", tl.Kind, tl.Query, err)
	}
	a, err := sp.Decode(q)
	if err != nil {
		return Request{}, fmt.Errorf("%s query %q: %w", tl.Kind, tl.Query, err)
	}
	return Request{Spec: sp, Args: a}, nil
}
