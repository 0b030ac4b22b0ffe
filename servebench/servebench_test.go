package main

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// TestHotMixCoversRegistry: hot-reads gives every registered query kind
// a weight, and every request shape of both mixes decodes with its
// kind's own registry decoder.
func TestHotMixCoversRegistry(t *testing.T) {
	weight := map[string]float64{}
	for _, e := range hotMix {
		weight[e.kind] += e.weight
	}
	for _, sp := range qserve.Specs() {
		if weight[sp.Name()] <= 0 {
			t.Errorf("registered kind %q has no weight in hot-reads", sp.Name())
		}
	}
	for _, e := range append(slices.Clone(hotMix), coldMix...) {
		sp := qserve.LookupSpec(e.kind)
		if sp == nil {
			t.Fatalf("mix names unregistered kind %q", e.kind)
		}
		_, rawq, _ := strings.Cut(e.path(3, 5), "?")
		q, err := url.ParseQuery(rawq)
		if err == nil {
			_, err = sp.Decode(q)
		}
		if err != nil {
			t.Errorf("%s: %v", e.path(3, 5), err)
		}
	}
}

// TestHotSequenceDeterministic: a seed fixes the request sequence byte
// for byte, and another seed changes it.
func TestHotSequenceDeterministic(t *testing.T) {
	pool := []uint32{7, 11, 13, 17, 19, 23, 29, 31}
	join := func(seed uint64) string { return strings.Join(hotSequence(seed, pool, 4096), "\n") }
	if join(1) != join(1) {
		t.Fatal("one seed gave two request sequences")
	}
	if join(1) == join(2) {
		t.Fatal("two seeds gave one request sequence")
	}
	if !strings.Contains(join(1), "live=1") || !strings.Contains(join(1), "tol=") {
		t.Fatal("sequence lacks the live and tolerance shapes")
	}
}

// servedSnapshot serves an R-MAT graph of the given seed and edge
// factor through the qserve HTTP stack and returns its base URL and
// its snapshot manager.
func servedSnapshot(t *testing.T, seed uint64, ef int) (string, *snapmgr.Manager) {
	t.Helper()
	const sc = 10
	edges, err := rmat.Generate(1, rmat.PaperParams(sc, ef<<sc, timeMax, seed))
	if err != nil {
		t.Fatal(err)
	}
	store := dyngraph.NewTracked(dyngraph.NewHybrid(1<<sc, 4*len(edges), 0, seed))
	store.ApplyBatch(1, stream.Mirror(stream.Inserts(edges)))
	mgr := snapmgr.New(1, store)
	ex := qserve.New(mgr, qserve.Config{Undirected: true, CacheBytes: 1 << 20})
	ex.EnableLive()
	srv := httptest.NewServer(qserve.NewServer(ex, true, 1).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, mgr
}

// TestCheckerRejectsWrongReference: replies pass against the kernels on
// the served snapshot, and every kind fails against the kernels on a
// sparser graph, where pairs that are connected in the served graph
// are not.
func TestCheckerRejectsWrongReference(t *testing.T) {
	base, mgr := servedSnapshot(t, 3, edgeFactor)
	_, other := servedSnapshot(t, 4, 1)
	right := newOracle(mgr.Current(), mgr.Epoch())
	wrong := newOracle(other.Current(), mgr.Epoch())
	c := newConn(base, nil)
	defer c.close()
	caught := map[string]bool{}
	for _, path := range hotKeys([]uint32{0, 1, 2, 5, 9, 100, 513, 1000}) {
		r, err := c.do(path, nil, time.Now(), false)
		if err != nil || r.status != 200 {
			t.Fatalf("%s: status %d, %v", path, r.status, err)
		}
		if err := right.check(path, r.body); err != nil {
			t.Errorf("right reference: %v", err)
		}
		kind, _, _ := splitPath(path)
		if strings.Contains(path, "live=1") {
			kind += "-live"
		}
		if wrong.check(path, r.body) != nil {
			caught[kind] = true
		}
	}
	for _, kind := range []string{"bfs", "sssp", "connected", "connected-live", "khop", "components", "clustering", "pagerank"} {
		if !caught[kind] {
			t.Errorf("checker accepted every %s reply against the wrong reference", kind)
		}
	}
}

// TestSameArcs: the recovery check compares arc multisets, not orders.
func TestSameArcs(t *testing.T) {
	a := []edge.Edge{{U: 1, V: 2, T: 3}, {U: 0, V: 1, T: 1}, {U: 0, V: 1, T: 1}}
	b := []edge.Edge{{U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 3}, {U: 0, V: 1, T: 1}}
	if !sameArcs(a, b) {
		t.Fatal("reordered arcs reported different")
	}
	b[2].T = 2
	if sameArcs(a, b) {
		t.Fatal("a changed label went unnoticed")
	}
}

// TestSelfSums: self times of nested spans sum to the root; a child
// that leaks out of its parent breaks the sum.
func TestSelfSums(t *testing.T) {
	spans := []span{
		{id: 1, req: 1, name: "client", start: 0, end: 100},
		{id: 2, parent: 1, req: 1, name: "http", start: 10, end: 90},
		{id: 3, parent: 2, req: 1, name: "engine.query", start: 20, end: 50},
		{id: 4, parent: 2, req: 1, name: "engine.wait", start: 50, end: 60},
	}
	sums, roots := selfSums(spans)
	if len(sums) != 1 || sums[0] != roots[0] || roots[0] != 100 {
		t.Fatalf("nested spans: sums %v roots %v", sums, roots)
	}
	spans[3].end = 95 // outlives its parent
	if sums, roots = selfSums(spans); sums[0] == roots[0] {
		t.Fatal("a leaking child still summed to the root")
	}
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json lists exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}

	p := &pass{}
	finishE2E(p, dist{1}, dist{1}, .99, 1)
	layers := map[string]metric{}
	c := counters{rt: make([]metrics.Sample, len(runtimeMetrics))}
	for i, name := range runtimeMetrics {
		c.rt[i].Name = name
	}
	metrics.Read(c.rt)
	windowLayers(c, c, &sampler{}, 0, nil, layers)
	spanLayers(nil, nil, layers)
	traceDeltas(p.e2e, p.e2e, layers)

	for _, m := range []struct {
		list []named
		prog map[string]metric
	}{{spec.EndToEnd, p.e2e}, {spec.PerLayer, layers}} {
		listed := map[string]string{}
		for _, x := range m.list {
			listed[x.Name] = x.Unit
		}
		for name, mm := range m.prog {
			if u, ok := listed[name]; !ok || u != mm.Unit {
				t.Errorf("program metric %s (%s) listed as %q", name, mm.Unit, u)
			}
		}
		for name := range listed {
			if _, ok := m.prog[name]; !ok {
				t.Errorf("BENCHMARK.json lists %s, the program does not report it", name)
			}
		}
	}
}
