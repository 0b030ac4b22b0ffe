package main

import (
	"math"
	"runtime/metrics"
	"strings"
	"time"

	"snapdyn/internal/batcher"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/wal"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counters is a point-in-time reading of every layer's own counters.
type counters struct {
	cache qcache.Counters
	adm   qserve.Counters
	mgr   snapmgr.Metrics
	bat   batcher.Metrics
	wal   wal.Metrics
	rt    []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func readCounters(s *stack) counters {
	c := counters{
		cache: s.ex.Cache().Counters(),
		adm:   s.ex.Counters(),
		mgr:   s.mgr.Metrics(),
		rt:    make([]metrics.Sample, len(runtimeMetrics)),
	}
	if s.dur != nil {
		c.bat = s.dur.Batcher().Metrics()
		c.wal = s.dur.Log().Metrics()
	}
	for i, name := range runtimeMetrics {
		c.rt[i].Name = name
	}
	metrics.Read(c.rt)
	return c
}

// sampler polls the executor's admission counters and the manager's
// refresh metrics through a timed window, to see what the cumulative
// counters do not keep: occupancy, and the cost of each refresh.
type sampler struct {
	stop, done chan struct{}

	inflight     dist
	waitingMax   int
	refreshLat   dist // ms
	refreshDirty dist
}

// startSampler polls every 2 ms until stopped.
func startSampler(s *stack) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		last := s.mgr.Metrics().Refreshes
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			c := s.ex.Counters()
			sm.inflight = append(sm.inflight, float64(c.Inflight))
			sm.waitingMax = max(sm.waitingMax, c.Waiting)
			if m := s.mgr.Metrics(); m.Refreshes != last {
				last = m.Refreshes
				sm.refreshLat = append(sm.refreshLat, durMs(m.LastLatency))
				sm.refreshDirty = append(sm.refreshDirty, float64(m.LastDirty))
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() {
	close(sm.stop)
	<-sm.done
}

// histQuantile returns the q-quantile of the difference of two
// runtime/metrics histograms, as the upper bound of its bucket.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// windowLayers reports the counter-based per-layer metrics of a window
// from its first and last readings and its sampler.
// late is the open-loop generator's lateness, empty for closed loops.
func windowLayers(a, b counters, sm *sampler, ingests int, late dist, out map[string]metric) {
	out["loadgen.late_p99_ms"] = metric{late.quantile(.99), "ms"}
	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	out["cache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["cache.coalesced"] = metric{float64(b.cache.Coalesced - a.cache.Coalesced), "count"}
	out["cache.evictions"] = metric{float64(b.cache.Evictions - a.cache.Evictions), "count"}
	out["cache.bytes_mb"] = metric{float64(b.cache.Bytes) / (1 << 20), "MB"}

	out["admission.inflight_mean"] = metric{sm.inflight.mean(), "count"}
	out["admission.waiting_max"] = metric{float64(sm.waitingMax), "count"}
	out["admission.shed"] = metric{float64(b.adm.Shed - a.adm.Shed), "count"}

	refreshes := b.mgr.Refreshes - a.mgr.Refreshes
	out["refresh.count"] = metric{float64(refreshes), "count"}
	out["refresh.mean_ms"] = metric{ratio(durMs(b.mgr.TotalLatency-a.mgr.TotalLatency), float64(refreshes)), "ms"}
	out["refresh.max_ms"] = metric{sm.refreshLat.quantile(1), "ms"}
	out["refresh.dirty_mean"] = metric{sm.refreshDirty.mean(), "count"}

	flushes := float64(b.bat.Flushes - a.bat.Flushes)
	out["batcher.batches_per_flush"] = metric{ratio(float64(ingests), flushes), "ratio"}
	out["wal.bytes_per_update"] = metric{ratio(float64(b.wal.Bytes-a.wal.Bytes), float64(b.wal.AppendedUpdates-a.wal.AppendedUpdates)), "bytes"}

	rt := func(i int) metrics.Value { return a.rt[i].Value }
	rtb := func(i int) metrics.Value { return b.rt[i].Value }
	out["gc.cycles"] = metric{float64(rtb(0).Uint64() - rt(0).Uint64()), "count"}
	out["gc.pause_p99_us"] = metric{histQuantile(rt(1).Float64Histogram(), rtb(1).Float64Histogram(), .99) * 1e6, "us"}
	out["gc.cpu_fraction"] = metric{ratio(rtb(2).Float64()-rt(2).Float64(), rtb(3).Float64()-rt(3).Float64()), "ratio"}
	out["sched.latency_p99_us"] = metric{histQuantile(rt(4).Float64Histogram(), rtb(4).Float64Histogram(), .99) * 1e6, "us"}
	out["heap.live_mb"] = metric{float64(rtb(5).Uint64()) / (1 << 20), "MB"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDeltas reports what tracing added to each end-to-end metric.
// The peak RSS is left out: it is a process-wide high-water mark, and
// the traced pass runs after the untraced one in the same process.
func traceDeltas(base, traced, out map[string]metric) {
	for k, m := range traced {
		if k != "rss_peak_mb" {
			out["trace.delta."+k] = metric{m.Value - base[k].Value, m.Unit}
		}
	}
}

// spanLayers reports the span-based per-layer metrics.
func spanLayers(spans []span, ckpts dist, out map[string]metric) {
	sums, roots := selfSums(spans)
	// The HTTP layer's time in a request is its round trip minus the
	// engine calls made for it and any wait for a backed-up sender:
	// client and server HTTP work plus the loopback network.
	round := map[uint64]int64{}
	other := map[uint64]int64{}
	kinds := map[uint64]string{}
	var httpSelf, ingestSelf, wait, hit, miss, live, ingest, bwait, wwrite, wsync, apply dist
	kernel := map[string]dist{}
	for _, s := range spans {
		d := float64(s.dur())
		if strings.HasPrefix(s.name, "engine.") || s.name == "loadgen.wait" {
			other[s.req] += s.dur()
		}
		switch s.name {
		case "client":
			round[s.req] = s.dur()
		case "http":
			kinds[s.req] = s.kind
		case "engine.wait":
			wait = append(wait, d/1e6)
		case "engine.query":
			switch s.cache {
			case qserve.CacheHit:
				hit = append(hit, d/1e3)
			case qserve.CacheMiss:
				miss = append(miss, d/1e6)
				kernel[s.kind] = append(kernel[s.kind], d/1e6)
			case qserve.CacheLive:
				live = append(live, d/1e3)
			}
		case "engine.ingest":
			ingest = append(ingest, d/1e6)
		case "batcher.wait":
			bwait = append(bwait, d/1e6)
		case "wal.write":
			wwrite = append(wwrite, d/1e3)
		case "wal.sync":
			wsync = append(wsync, d/1e6)
		case "durable.apply":
			apply = append(apply, d/1e6)
		}
	}
	for req, kind := range kinds {
		r, ok := round[req]
		if !ok {
			continue
		}
		us := float64(r-other[req]) / 1e3
		if kind == "ingest" {
			ingestSelf = append(ingestSelf, us)
		} else {
			httpSelf = append(httpSelf, us)
		}
	}
	out["http.self_p50_us"] = metric{httpSelf.quantile(.5), "us"}
	out["http.self_p99_us"] = metric{httpSelf.quantile(.99), "us"}
	out["http.ingest_self_p50_us"] = metric{ingestSelf.quantile(.5), "us"}
	out["http.minepoch_wait_p50_ms"] = metric{wait.quantile(.5), "ms"}
	out["engine.hit_p50_us"] = metric{hit.quantile(.5), "us"}
	out["engine.miss_p50_ms"] = metric{miss.quantile(.5), "ms"}
	out["engine.miss_p99_ms"] = metric{miss.quantile(.99), "ms"}
	out["engine.live_p50_us"] = metric{live.quantile(.5), "us"}
	for _, k := range []string{"bfs", "sssp", "connected", "khop", "components"} {
		out["kernel."+k+"_p50_ms"] = metric{kernel[k].quantile(.5), "ms"}
	}
	out["kernel.sssp_p99_ms"] = metric{kernel["sssp"].quantile(.99), "ms"}
	// The whole-graph kernels miss once per key; report the slowest.
	out["kernel.clustering_ms"] = metric{kernel["clustering"].quantile(1), "ms"}
	out["kernel.pagerank_ms"] = metric{kernel["pagerank"].quantile(1), "ms"}
	out["ingest.engine_p50_ms"] = metric{ingest.quantile(.5), "ms"}
	out["ingest.engine_p95_ms"] = metric{ingest.quantile(.95), "ms"}
	out["batcher.wait_p50_ms"] = metric{bwait.quantile(.5), "ms"}
	out["wal.write_p50_us"] = metric{wwrite.quantile(.5), "us"}
	out["wal.fsync_p50_ms"] = metric{wsync.quantile(.5), "ms"}
	out["wal.fsync_p99_ms"] = metric{wsync.quantile(.99), "ms"}
	out["wal.checkpoint_ms"] = metric{ckpts.quantile(.5), "ms"}
	out["durable.apply_p50_ms"] = metric{apply.quantile(.5), "ms"}
	out["durable.apply_p95_ms"] = metric{apply.quantile(.95), "ms"}

	var sum, root float64
	for i := range sums {
		sum += float64(sums[i])
		root += float64(roots[i])
	}
	out["trace.selfsum_err_pct"] = metric{100 * math.Abs(sum-root) / math.Max(root, 1), "%"}
	out["trace.requests"] = metric{float64(len(roots)), "count"}
}
