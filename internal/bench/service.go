package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/centrality"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/timing"
)

// FigService measures the query-serving layer end to end — the figure
// the ROADMAP's north star asks for and the PR-4 pipeline figure only
// approximates: sustained mixed ingest/query load through the real
// serving stack (auto-refreshing snapshot manager + pooled executor),
// reported as QPS with p50/p99 per-query latency at 1..maxQueryWorkers
// concurrent query workers.
//
// Per sweep point, an ingest goroutine continuously applies churn
// batches (mirrored insertions one round, their deletions the next, so
// the graph size stays bounded) through the manager's refresh gate
// while the background auto-refresher republishes snapshots by policy;
// query workers submit a BFS / delta-stepping SSSP / st-connectivity
// mix through the executor pool, each query timed individually. The
// executor runs one kernel worker per query and as many concurrent
// slots as query workers — throughput comes from query concurrency,
// matching the serving default, and nothing queues or sheds, so the
// latency histogram is pure service time.
//
// The largest sweep point also measures allocation churn
// (runtime.MemStats TotalAlloc across the sustained phase) — the
// evidence behind the RCU-by-GC verdict recorded in ROADMAP.md: how
// many bytes per published epoch the no-release snapshot protocol
// hands to the garbage collector.
//
// Compare against FigPipeline (snapbench -fig pipeline), which drives
// the same pipeline with hand-rolled readers and per-call Refresh: the
// delta is what admission control, scratch pooling, and policy-driven
// refresh cost — or save — as a system.
func FigService(cfg Config, maxQueryWorkers int, perPoint time.Duration) *timing.Table {
	if maxQueryWorkers <= 0 {
		maxQueryWorkers = 4
	}
	if perPoint <= 0 {
		perPoint = time.Second
	}
	n := cfg.n()
	edges := cfg.generate()
	extraCfg := cfg
	extraCfg.Seed += 77
	extra := extraCfg.generate()
	ws := cfg.workers()
	iw := ws[len(ws)-1]

	t := &timing.Table{
		Title: "Service: sustained QPS and latency under mixed ingest/query load",
		Note: cfg.instanceNote() + fmt.Sprintf(
			" (undirected), %d ingest workers, 1 kernel worker per query, %s per point", iw, perPoint),
	}

	// Undirected store behind an auto-refreshing manager: the serving
	// configuration snapserve runs.
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed))
	store.ApplyBatch(iw, stream.Mirror(stream.Inserts(edges)))
	mgr := snapmgr.New(iw, store)
	mgr.Start(snapmgr.Policy{
		MaxDirty: max(1, n/100),
		MaxAge:   50 * time.Millisecond,
		Poll:     2 * time.Millisecond,
		Workers:  iw,
	})
	defer mgr.Stop()

	// Bounded churn: round 2k inserts a slice of fresh mirrored edges,
	// round 2k+1 deletes them again, so sustained ingest never grows
	// the instance past m + batch.
	churn := churnBatches(extra, max(1024, n/32))

	sources := centrality.SampleSources(mgr.Current(), 256, cfg.Seed+43)

	for _, qw := range timing.SweepWorkers(maxQueryWorkers) {
		ex := qserve.New(mgr, qserve.Config{
			Workers:       1,
			MaxConcurrent: qw,
			MaxQueue:      2 * qw,
			Undirected:    true,
		})

		stopIngest := make(chan struct{})
		var applied atomic.Int64
		var iwg sync.WaitGroup
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopIngest:
					return
				default:
				}
				b := churn[i%len(churn)]
				mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(iw, b) })
				applied.Add(int64(len(b)))
			}
		}()

		measureChurn := qw == maxQueryWorkers
		var msBefore runtime.MemStats
		metBefore := mgr.Metrics()
		if measureChurn {
			runtime.GC()
			runtime.ReadMemStats(&msBefore)
		}

		lats := make([][]time.Duration, qw)
		deadline := time.Now().Add(perPoint)
		var qwg sync.WaitGroup
		elapsed := timing.Time(func() {
			for q := 0; q < qw; q++ {
				qwg.Add(1)
				go func(q int) {
					defer qwg.Done()
					lat := make([]time.Duration, 0, 4096)
					src := uint32(q)
					for i := 0; time.Now().Before(deadline); i++ {
						s := sources[int(src)%len(sources)]
						start := time.Now()
						var err error
						switch i % 3 {
						case 0:
							_, err = qserve.BFS(ex, s)
						case 1:
							_, err = qserve.SSSP(ex, s, 0)
						default:
							_, err = qserve.Connected(ex, s, sources[(int(src)+7)%len(sources)])
						}
						if err != nil {
							panic(fmt.Sprintf("bench: service query failed: %v", err))
						}
						lat = append(lat, time.Since(start))
						src = src*1664525 + 1013904223
					}
					lats[q] = lat
				}(q)
			}
			qwg.Wait()
		})
		close(stopIngest)
		iwg.Wait()

		if measureChurn {
			var msAfter runtime.MemStats
			runtime.ReadMemStats(&msAfter)
			metAfter := mgr.Metrics()
			allocMB := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
			epochs := metAfter.Refreshes - metBefore.Refreshes
			perEpoch := 0.0
			if epochs > 0 {
				perEpoch = allocMB / float64(epochs)
			}
			t.Note += fmt.Sprintf("; alloc churn at %d query workers: %.1f MB/s, %.1f MB per published epoch (%d epochs, RCU-by-GC)",
				qw, allocMB/elapsed, perEpoch, epochs)
		}

		all := flatten(lats)
		served := len(all)
		t.Add(timing.Measurement{
			Label: "service-query",
			Param: fmt.Sprintf("qps=%.0f p50=%s p99=%s", float64(served)/elapsed,
				fmtLatency(percentile(all, 0.50)), fmtLatency(percentile(all, 0.99))),
			Workers: qw, Ops: int64(served), Seconds: elapsed,
		})
		t.Add(timing.Measurement{
			Label: "service-ingest", Param: fmt.Sprintf("epoch=%d", mgr.Epoch()),
			Workers: iw, Ops: applied.Load(), Seconds: elapsed,
		})
	}
	return t
}

// churnBatches builds size-stable ingest rounds from a fresh edge
// stream: each insert batch is followed by the batch deleting exactly
// those arcs (both mirrored), so cycling through the rounds holds the
// live arc count steady no matter how long the sustained phase runs.
func churnBatches(fresh []edge.Edge, per int) [][]edge.Update {
	if per > len(fresh) {
		per = len(fresh)
	}
	var rounds [][]edge.Update
	for at := 0; at+per <= len(fresh) && len(rounds) < 16; at += per {
		ins := make([]edge.Update, 0, 2*per)
		del := make([]edge.Update, 0, 2*per)
		for _, e := range fresh[at : at+per] {
			ins = append(ins,
				edge.Update{Edge: e, Op: edge.Insert},
				edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T}, Op: edge.Insert})
			del = append(del,
				edge.Update{Edge: e, Op: edge.Delete},
				edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T}, Op: edge.Delete})
		}
		rounds = append(rounds, ins, del)
	}
	return rounds
}

func flatten(lats [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile returns the p-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func fmtLatency(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
	}
}
