package bench

import (
	"strings"
	"testing"
	"time"

	"snapdyn/internal/qserve"
	"snapdyn/internal/timing"
	"snapdyn/internal/workload"
)

// tinyConfig keeps driver tests fast.
func tinyConfig() Config {
	return Config{Scale: 10, EdgeFactor: 8, TimeMax: 100, Seed: 42, Workers: []int{1, 2}}
}

func checkTable(t *testing.T, tbl *timing.Table, wantLabels ...string) {
	t.Helper()
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", tbl.Title)
	}
	labels := map[string]bool{}
	for _, m := range tbl.Rows {
		if m.Seconds <= 0 {
			t.Fatalf("%s: non-positive duration in %+v", tbl.Title, m)
		}
		if m.Ops <= 0 {
			t.Fatalf("%s: non-positive ops in %+v", tbl.Title, m)
		}
		labels[m.Label] = true
	}
	for _, w := range wantLabels {
		if !labels[w] {
			t.Fatalf("%s: missing series %q (have %v)", tbl.Title, w, tbl.Labels())
		}
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), tbl.Title) {
		t.Fatalf("%s: print missing title", tbl.Title)
	}
}

func TestFig1(t *testing.T) {
	tbl := Fig1InsertScaling(tinyConfig(), []int{8, 10})
	checkTable(t, tbl, "dyn-arr-nr")
	if len(tbl.Rows) != 4 { // 2 scales x 2 worker counts
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}

func TestFig2(t *testing.T) {
	tbl := Fig2ResizeOverhead(tinyConfig())
	checkTable(t, tbl, "dyn-arr", "dyn-arr-nr")
}

func TestFig3(t *testing.T) {
	tbl := Fig3Partitioning(tinyConfig())
	checkTable(t, tbl, "dyn-arr-nr", "vpart", "epart", "batched-bound(semisort)")
}

func TestFig4(t *testing.T) {
	tbl := Fig4Insertions(tinyConfig())
	checkTable(t, tbl, "dyn-arr", "treaps", "hybrid-arr-treap")
}

func TestFig5(t *testing.T) {
	tbl := Fig5Deletions(tinyConfig(), 0.1)
	checkTable(t, tbl, "dyn-arr", "treaps", "hybrid-arr-treap")
}

func TestFig6(t *testing.T) {
	tbl := Fig6Mixed(tinyConfig())
	checkTable(t, tbl, "dyn-arr", "treaps", "hybrid-arr-treap")
}

func TestFig7(t *testing.T) {
	tbl := Fig7LCTBuild(tinyConfig())
	checkTable(t, tbl, "lct-build")
}

func TestFig8(t *testing.T) {
	tbl := Fig8Queries(tinyConfig(), 10000)
	checkTable(t, tbl, "lct-query")
}

func TestFig9(t *testing.T) {
	tbl := Fig9Subgraph(tinyConfig())
	checkTable(t, tbl, "induced-subgraph")
}

func TestFig10(t *testing.T) {
	tbl := Fig10BFS(tinyConfig())
	checkTable(t, tbl, "temporal-bfs")
}

func TestFig11(t *testing.T) {
	tbl := Fig11TemporalBC(tinyConfig(), 16)
	checkTable(t, tbl, "temporal-bc")
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale < 10 || cfg.EdgeFactor < 1 || cfg.TimeMax == 0 {
		t.Fatalf("suspicious default config: %+v", cfg)
	}
	if len(cfg.workers()) == 0 {
		t.Fatal("empty default sweep")
	}
	if cfg.n() != 1<<cfg.Scale || cfg.m() != cfg.EdgeFactor<<cfg.Scale {
		t.Fatal("size computation wrong")
	}
}

func TestKernelSweepSSSP(t *testing.T) {
	cfg := tinyConfig()
	cfg.Deltas = []int64{0, 25}
	tbl := KernelSweep(cfg, "sssp", 0)
	checkTable(t, tbl, "sssp-delta", "sssp-dijkstra")
	// One row per (delta, worker) plus the Dijkstra baseline.
	if want := len(cfg.Deltas)*len(cfg.Workers) + 1; len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
}

// TestFigWorkloadReplaysEveryKind replays a trace holding one request
// of every registered kind, a live connectivity request, and a vertex
// outside the instance: the figure serves them all (live from a live
// index), counts the out-of-range one as rejected, and never panics.
func TestFigWorkloadReplaysEveryKind(t *testing.T) {
	trace := `{"kind":"bfs","query":"src=3"}
{"kind":"sssp","query":"delta=25&src=7"}
{"kind":"connected","query":"u=1&v=9"}
{"kind":"connected","query":"live=1&u=1&v=9"}
{"kind":"components","query":""}
{"kind":"clustering","query":""}
{"kind":"khop","query":"k=2&src=5"}
{"kind":"pagerank","query":"tol=0.001"}
{"kind":"bfs","query":"src=4000000"}
`
	reqs, err := workload.ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, r := range reqs {
		kinds[r.Spec.Name()] = true
	}
	if len(kinds) != qserve.NumSpecs() {
		t.Fatalf("trace covers %d kinds, want all %d", len(kinds), qserve.NumSpecs())
	}
	tbl := FigWorkload(tinyConfig(), nil, 0, 0, 100*time.Millisecond, reqs)
	checkTable(t, tbl, "replay-uncached", "replay-cached")
	for _, m := range tbl.Rows {
		if !strings.Contains(m.Param, "rejected=") {
			t.Fatalf("%s: out-of-range request not counted as rejected: %s", m.Label, m.Param)
		}
	}
}
