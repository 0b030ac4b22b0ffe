package workload

import (
	"bytes"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snapdyn/internal/qserve"
)

// pool returns the source pool {0, ..., n-1}.
func pool(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{Sources: pool(1 << 10), ZipfS: 1.2, Seed: 42}
	a, b := NewGenerator(cfg), NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if oa, ob := a.Next(), b.Next(); oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
	// A different seed must produce a different stream.
	c := NewGenerator(Config{Sources: pool(1 << 10), ZipfS: 1.2, Seed: 43})
	same := 0
	a = NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical ops", same)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher s concentrates traffic: the most popular source's share
	// must grow with the exponent, and s=0 must be roughly uniform.
	const n, draws = 1 << 10, 20000
	top := func(s float64) float64 {
		g := NewGenerator(Config{Sources: pool(n), ZipfS: s, Mix: Mix{BFS: 1}, Seed: 7})
		counts := make(map[uint64]int)
		for i := 0; i < draws; i++ {
			counts[g.Next().Args.A]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / draws
	}
	t0, t08, t12 := top(0), top(0.8), top(1.2)
	if !(t0 < t08 && t08 < t12) {
		t.Fatalf("top-source share not increasing in s: %.4f (0), %.4f (0.8), %.4f (1.2)", t0, t08, t12)
	}
	if t0 > 0.01 {
		t.Fatalf("uniform top share %.4f, want < 1%%", t0)
	}
	if t12 < 0.05 {
		t.Fatalf("s=1.2 top share %.4f, want >= 5%%", t12)
	}
}

func TestMixProportions(t *testing.T) {
	g := NewGenerator(Config{Sources: pool(64), Mix: Mix{BFS: 1, SSSP: 1}, Seed: 1})
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[g.Next().Spec.Name()]++
	}
	if counts["connected"] != 0 || counts["components"] != 0 {
		t.Fatalf("zero-weight kinds drawn: %+v", counts)
	}
	if counts["bfs"] < 1600 || counts["sssp"] < 1600 {
		t.Fatalf("even two-way mix came out %+v", counts)
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	mk := func() (*Generator, *Generator) {
		p := NewGenerator(Config{Sources: pool(256), ZipfS: 0.8, Seed: 5})
		return p.Split(), p.Split()
	}
	a1, a2 := mk()
	b1, b2 := mk()
	for i := 0; i < 200; i++ {
		if a1.Next() != b1.Next() || a2.Next() != b2.Next() {
			t.Fatal("split children not reproducible across runs")
		}
	}
}

// TestGeneratorDrawsFromPool pins the stream a seed draws: the same
// kinds, and the same pool positions, as the generator that drew ids
// in [0, len(pool)) for the caller to map into its pool afterwards.
func TestGeneratorDrawsFromPool(t *testing.T) {
	src := make([]uint32, 64)
	for i := range src {
		src[i] = 1000 + 3*uint32(i)
	}
	type draw struct {
		kind string
		u, v int // pool positions
	}
	want := map[float64][]draw{
		0: {{"sssp", 10, 0}, {"bfs", 22, 0}, {"bfs", 55, 0}, {"bfs", 51, 0},
			{"bfs", 39, 0}, {"bfs", 31, 0}, {"bfs", 33, 0}, {"sssp", 13, 0},
			{"bfs", 31, 0}, {"bfs", 44, 0}, {"connected", 4, 38}, {"sssp", 4, 0}},
		1.2: {{"bfs", 18, 0}, {"sssp", 12, 0}, {"bfs", 53, 0}, {"connected", 55, 40},
			{"bfs", 13, 0}, {"sssp", 32, 0}, {"bfs", 30, 0}, {"bfs", 46, 0},
			{"bfs", 22, 0}, {"bfs", 18, 0}, {"sssp", 56, 0}, {"connected", 22, 6}},
	}
	for s, draws := range want {
		g := NewGenerator(Config{Sources: src, ZipfS: s, Seed: 42})
		for i, d := range draws {
			got := g.Next()
			a := qserve.Args{A: uint64(src[d.u])}
			if d.kind == "connected" {
				a.B = uint64(src[d.v])
			}
			if got.Spec != qserve.LookupSpec(d.kind) || got.Args != a {
				t.Fatalf("s=%v draw %d: got %s %+v, want %s %+v", s, i, got.Spec.Name(), got.Args, d.kind, a)
			}
		}
	}
}

// TestTraceRoundTrip records one request of every registered kind, plus
// the live and tolerance parameters, and reads the trace back: every
// line decodes through its spec into exactly the recorded arguments.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := []struct{ kind, query string }{
		{"bfs", "src=3"},
		{"sssp", "delta=40&src=9"},
		{"connected", "u=1&v=2"},
		{"connected", "live=1&u=1&v=2"},
		{"components", ""},
		{"clustering", ""},
		{"khop", "k=2&src=5"},
		{"pagerank", ""},
		{"pagerank", "tol=0.0001"},
	}
	var want []Request
	for _, l := range lines {
		sp := qserve.LookupSpec(l.kind)
		q, err := url.ParseQuery(l.query)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sp.Decode(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Request{Spec: sp, Args: a})
		rec.RecordQuery(sp, l.query)
	}
	if rec.Len() != len(lines) {
		t.Fatalf("recorder Len = %d, want %d", rec.Len(), len(lines))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: got %s %+v, want %s %+v",
				i, got[i].Spec.Name(), got[i].Args, want[i].Spec.Name(), want[i].Args)
		}
	}
	seen := map[*qserve.Spec]bool{}
	for _, r := range got {
		seen[r.Spec] = true
	}
	if len(seen) != qserve.NumSpecs() {
		t.Fatalf("trace covers %d kinds, want all %d", len(seen), qserve.NumSpecs())
	}
}

// TestReadTraceRejects feeds malformed traces: each must fail with an
// error naming the offending line, never panic or replay a guess.
func TestReadTraceRejects(t *testing.T) {
	ok := `{"kind":"bfs","query":"src=1"}` + "\n"
	cases := []struct{ name, trace, line string }{
		{"bad json", ok + "{not json\n", "line 2"},
		{"unknown kind", ok + "\n" + `{"kind":"nope","query":""}` + "\n", "line 3"},
		{"bad param", `{"kind":"khop","query":"src=1&k=x"}`, "line 1"},
		{"missing param", ok + `{"kind":"connected","query":"u=1"}`, "line 2"},
		{"bad escape", `{"kind":"bfs","query":"src=%zz"}`, "line 1"},
		{"null line", "null\n", "line 1"},
	}
	for _, tc := range cases {
		reqs, err := ReadTrace(strings.NewReader(tc.trace))
		if err == nil {
			t.Errorf("%s: accepted, decoded %d requests", tc.name, len(reqs))
			continue
		}
		if !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.line)
		}
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	// Plain Poisson at 1000/s: the mean gap over many draws must be
	// close to 1ms.
	a := NewArrivals(1000, 0, 0, 0, 11)
	var sum time.Duration
	const draws = 20000
	for i := 0; i < draws; i++ {
		sum += a.Next()
	}
	mean := sum / draws
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("mean gap %v, want ~1ms", mean)
	}
}

func TestArrivalsBursty(t *testing.T) {
	// With bursts on, gaps drawn in the on state are ~8x shorter: the
	// gap distribution must be visibly bimodal — compare the mean gap
	// against plain Poisson at the same base rate.
	plain := NewArrivals(1000, 0, 0, 0, 13)
	burst := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	var ps, bs time.Duration
	const draws = 20000
	for i := 0; i < draws; i++ {
		ps += plain.Next()
		bs += burst.Next()
	}
	// Equal on/off holding and 8x burst rate: most arrivals land in
	// bursts, so the mean gap shrinks well below the calm mean.
	if bs >= ps*3/4 {
		t.Fatalf("bursty mean gap %v not below 3/4 of plain %v", bs/draws, ps/draws)
	}
	// Determinism: same seed, same gaps.
	b2 := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	b1 := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	for i := 0; i < 100; i++ {
		if b1.Next() != b2.Next() {
			t.Fatal("arrivals not deterministic for a fixed seed")
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes as a trace file. ReadTrace must
// never panic: it returns an error naming a line, or requests that each
// carry a registered kind.
func FuzzReadTrace(f *testing.F) {
	for _, s := range []string{
		"",
		`{"kind":"bfs","query":"src=3"}` + "\n",
		`{"kind":"connected","query":"live=1&u=1&v=9"}` + "\n\n" + `{"kind":"pagerank","query":"tol=0.0001"}`,
		`{"kind":"khop","query":"k=2&src=5"}` + "\n" + `{"kind":"components","query":""}`,
		`{"kind":"sssp","query":"delta=-4&src=0"}` + "\r\n",
		`{"kind":"bfs","u":3}`,
		`{"kind":"nope","query":""}`,
		`{"kind":"bfs","query":"src=%zz"}`,
		"null\n[1,2]\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "trace line ") {
				t.Fatalf("error does not name a line: %v", err)
			}
			return
		}
		for i, r := range reqs {
			if r.Spec == nil || qserve.LookupSpec(r.Spec.Name()) != r.Spec {
				t.Fatalf("request %d has no registered kind: %+v", i, r)
			}
		}
	})
}
