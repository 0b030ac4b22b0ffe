package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/durable"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// The workloads. Their reasons are in README.md.
const (
	hotReads      = "hot-reads"
	coldReads     = "cold-reads"
	durableIngest = "durable-ingest"
)

var workloads = []string{hotReads, coldReads, durableIngest}

// Workload sizes.
const (
	connections   = 2  // client connections, all workloads
	poolSize      = 32 // hot-reads source pool
	hotSeqLen     = 1 << 14
	hotTraceEvery = 16  // hot-reads traces one window request in this many
	coldRate      = 100 // cold-reads queries per second (Poisson)
	coldBatch     = 512 // cold-reads updates per /ingest
	coldEvery     = 100 * time.Millisecond
	durBatch      = 256 // durable-ingest updates per /ingest
	durPerSecond  = 130 // durable-ingest batches per second of --seconds
	verifyPerKind = 6   // cold-reads replies checked per mix entry
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	root     string // checkout root; scratch files go under .bench_build
}

// pass is the outcome of one set-up plus timed window of a workload.
type pass struct {
	attempted, failed int
	wrong             []string // correctness failures
	e2e               map[string]metric
	report            []string // workload-specific figures, by name
	layers            map[string]metric
}

func (p *pass) fail(format string, args ...any) {
	p.wrong = append(p.wrong, fmt.Sprintf(format, args...))
}

// line adds a workload-specific figure to the report, with the sample
// count behind it when it is a percentile.
func (p *pass) line(name string, v float64, unit string, n int) {
	s := fmt.Sprintf("%-22s %12.4f %s", name, v, unit)
	if n > 0 {
		s += fmt.Sprintf("  (n=%d)", n)
	}
	p.report = append(p.report, s)
}

// latencies adds the median and a tail percentile of a latency sample
// to the report, marking a tail with fewer than ten samples beyond it.
func (p *pass) latencies(prefix string, d dist, tail float64) {
	p.line(prefix+"_p50_ms", d.quantile(.5), "ms", len(d))
	name := fmt.Sprintf("%s_p%d_ms", prefix, int(math.Round(tail*100)))
	if !supports(len(d), tail) {
		name += "*"
	}
	p.line(name, d.quantile(tail), "ms", len(d))
}

// setups builds the stack n times and keeps the last one, timing each
// build plus prepare; the median goes into setup_s.
func setups(cfg config, tr *tracer, n int, walDir func(i int) string,
	prepare func(s *stack) error) (*stack, dist, error) {
	var times dist
	var s *stack
	for i := 0; i < n; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := ""
		if walDir != nil {
			dir = walDir(i)
		}
		t0 := time.Now()
		var err error
		if s, err = buildStack(cfg.seed, dir, tr); err != nil {
			return nil, nil, err
		}
		if prepare != nil {
			if err := prepare(s); err != nil {
				s.close()
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

// finishE2E sets the end-to-end metrics from the workload's primary
// request class: its latencies, the tail percentile reported for it,
// and its completions per second.
func finishE2E(p *pass, setup dist, lat dist, tail float64, ops float64) {
	p.e2e = map[string]metric{
		"setup_s":     {setup.quantile(.5), "s"},
		"rss_peak_mb": {vmHWM(), "MB"},
		"p50_ms":      {lat.quantile(.5), "ms"},
		"tail_ms":     {lat.quantile(tail), "ms"},
		"ops_per_s":   {ops, "1/s"},
	}
}

func msSince(t time.Time, end time.Time) float64 { return float64(end.Sub(t)) / 1e6 }

// giantPool picks poolSize distinct vertices of the snapshot's largest
// component, by seed.
func giantPool(s *stack, seed uint64) []uint32 {
	comp := cc.Components(0, s.mgr.Current())
	label, _ := cc.Largest(0, comp)
	var members []uint32
	for v, c := range comp {
		if c == label {
			members = append(members, uint32(v))
		}
	}
	r := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return members[:poolSize]
}

// runHot: a closed loop of two connections over a frozen graph, after a
// warm-up that requests every key once.
func runHot(cfg config, tr *tracer, nSetups int) (*pass, error) {
	p := &pass{}
	var pool []uint32
	prepare := func(s *stack) error {
		pool = giantPool(s, cfg.seed)
		return warmUp(s, hotKeys(pool), tr)
	}
	s, setup, err := setups(cfg, tr, nSetups, nil, prepare)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var c0 counters
	var sm *sampler
	if tr != nil {
		c0, sm = readCounters(s), startSampler(s)
	}
	type worker struct {
		lat   dist
		first map[string][]byte
		bad   int
		err   error
	}
	ws := make([]worker, connections)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.window)
	for i := range ws {
		w := &ws[i]
		seq := hotSequence(cfg.seed*connections+uint64(i), pool, hotSeqLen)
		c := newConn(s.base, tr)
		w.first = map[string][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for k := 0; ; k++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				path := seq[k%len(seq)]
				r, err := c.do(path, nil, t0, tr != nil && k%hotTraceEvery == 0)
				if err != nil {
					w.err = err
					return
				}
				w.lat = append(w.lat, msSince(t0, r.end))
				if r.status != 200 {
					w.bad++
					continue
				}
				// A frozen graph serves one reply per key for the whole
				// window; the first is checked against the kernels below.
				if f, ok := w.first[path]; !ok {
					w.first[path] = bytes.Clone(r.body)
				} else if !bytes.Equal(f, r.body) {
					w.bad++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lat dist
	first := map[string][]byte{}
	for i := range ws {
		w := &ws[i]
		if w.err != nil {
			return nil, w.err
		}
		lat = append(lat, w.lat...)
		p.failed += w.bad
		for path, body := range w.first {
			if f, ok := first[path]; ok && !bytes.Equal(f, body) {
				p.fail("%s: connections were served different replies", path)
			}
			first[path] = body
		}
	}
	p.attempted = len(lat)
	if p.failed > 0 {
		p.fail("%d replies were errors or differed from the key's first reply", p.failed)
	}
	finishE2E(p, setup, lat, .99, float64(len(lat))/elapsed.Seconds())
	if tr != nil {
		sm.finish()
		p.layers = map[string]metric{}
		windowLayers(c0, readCounters(s), sm, 0, nil, p.layers)
	}
	p.latencies("query", lat, .99)
	p.line("query_qps", float64(len(lat))/elapsed.Seconds(), "q/s", 0)

	if s.mgr.Staleness() != 0 {
		p.fail("hot-reads graph was not frozen")
	}
	o := newOracle(s.mgr.Current(), s.mgr.Epoch())
	for path, body := range first {
		if err := o.check(path, body); err != nil {
			p.fail("%v", err)
		}
	}
	p.line("verified_replies", float64(len(first)), "count", 0)
	return p, nil
}

// warmUp requests every key once over two connections.
func warmUp(s *stack, keys []string, tr *tracer) error {
	var wg sync.WaitGroup
	errs := make([]error, connections)
	for i := 0; i < connections; i++ {
		c := newConn(s.base, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for k := i; k < len(keys); k += connections {
				r, err := c.do(keys[k], nil, time.Now(), tr != nil)
				if err == nil && r.status != 200 {
					err = fmt.Errorf("warm-up %s: status %d: %s", keys[k], r.status, r.body)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// freshEdges generates count new R-MAT edges for the churn stream, from
// a stream of the seed distinct from the bootstrap graph's.
func freshEdges(seed uint64, count int) ([]edge.Edge, error) {
	return rmat.Generate(0, rmat.PaperParams(scale, count, timeMax, seed^0x5bd1e995))
}

// coldSchedule is cold-reads' open-loop schedule: Poisson queries at
// coldRate and one churn batch every coldEvery.
func coldSchedule(seed uint64, window time.Duration, n int, ch *churn) []event {
	r := xrand.New(seed)
	p := newPicker(coldMix)
	// A Poisson process with exactly rate·window arrivals places them
	// uniformly at random over the window; fixing the count keeps the
	// offered load, and so ops_per_s, the same on every seed.
	sched := make([]event, int(coldRate*window.Seconds()))
	for i := range sched {
		sched[i] = event{due: time.Duration(r.Float64() * float64(window)), path: coldQuery(r, p, n)}
	}
	var ingests []event
	for d := coldEvery / 2; d < window; d += coldEvery {
		ingests = append(ingests, event{due: d, path: "/v1/ingest", body: ingestBody(ch.batch(coldBatch))})
	}
	sched = append(sched, ingests...)
	sortEvents(sched)
	return sched
}

func sortEvents(s []event) {
	// Stable so equal due times keep generation order.
	slices.SortStableFunc(s, func(a, b event) int {
		switch {
		case a.due < b.due:
			return -1
		case a.due > b.due:
			return 1
		}
		return 0
	})
}

// runCold: an open loop of Poisson queries with sliding-window churn on
// the same schedule, over two connections.
func runCold(cfg config, tr *tracer, nSetups int) (*pass, error) {
	p := &pass{}
	s, setup, err := setups(cfg, tr, nSetups, nil, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	batches := int(cfg.window / coldEvery)
	fresh, err := freshEdges(cfg.seed, batches*(coldBatch-coldBatch/4))
	if err != nil {
		return nil, err
	}
	ch := &churn{boot: s.boot, fresh: fresh}
	sched := coldSchedule(cfg.seed, cfg.window, s.n, ch)

	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = newConn(s.base, tr)
		defer conns[i].close()
	}
	var c0 counters
	var sm *sampler
	if tr != nil {
		c0, sm = readCounters(s), startSampler(s)
	}
	var mu sync.Mutex
	var qlat, alat, late dist
	var ioErr error
	start := time.Now()
	openLoop(conns, sched, tr != nil, func(_ int, o outcome) {
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		late = append(late, float64(o.late)/1e6)
		if o.err != nil {
			ioErr = o.err
			p.failed++
			return
		}
		ms := float64(o.lat) / 1e6
		if o.ev.body != nil {
			alat = append(alat, ms)
			var ack qserve.IngestReply
			if o.status != 200 || json.Unmarshal(o.body, &ack) != nil || ack.Applied != coldBatch {
				p.failed++
			}
			return
		}
		qlat = append(qlat, ms)
		if o.status != 200 {
			p.failed++
		}
	})
	elapsed := time.Since(start)
	if ioErr != nil {
		return nil, ioErr
	}
	if p.failed > 0 {
		p.fail("%d requests failed", p.failed)
	}
	finishE2E(p, setup, qlat, .99, float64(len(qlat))/elapsed.Seconds())
	if tr != nil {
		sm.finish()
		p.layers = map[string]metric{}
		windowLayers(c0, readCounters(s), sm, len(alat), late, p.layers)
	}
	p.latencies("query", qlat, .99)
	p.latencies("ingest_ack", alat, .95)
	p.latencies("loadgen_late", late, .99)

	// Churn has stopped: publish everything, then check a sample of
	// replies of every mix entry against the kernels on that snapshot.
	s.mgr.Refresh(0)
	o := newOracle(s.mgr.Current(), s.mgr.Epoch())
	r := xrand.New(cfg.seed ^ 0xc0ffee)
	c := newConn(s.base, nil)
	defer c.close()
	checked := 0
	for _, e := range coldMix {
		for i := 0; i < verifyPerKind; i++ {
			path := e.path(r.Uint32n(uint32(s.n)), r.Uint32n(uint32(s.n)))
			rep, err := c.do(path, nil, time.Now(), false)
			if err != nil {
				return nil, err
			}
			if err := o.check(path, rep.body); err != nil {
				p.fail("%v", err)
			}
			checked++
		}
	}
	p.line("verified_replies", float64(checked), "count", 0)
	return p, nil
}

// probe is the newest acked batch, for the read-your-writes prober.
type probe struct {
	batch int
	epoch uint64
	u, v  uint32 // an edge the batch inserted
	sent  time.Time
}

// runDurable: one closed-loop loader posting a fixed number of churn
// batches through the WAL, and one closed-loop prober reading its
// writes back; then close, reopen and compare.
func runDurable(cfg config, tr *tracer, nSetups int) (*pass, error) {
	p := &pass{}
	scratch := filepath.Join(cfg.root, ".bench_build", "wal")
	walDir := func(i int) string {
		dir := filepath.Join(scratch, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, i))
		os.RemoveAll(dir)
		return dir
	}
	s, setup, err := setups(cfg, tr, nSetups, walDir, nil)
	defer os.RemoveAll(scratch)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	nb := max(1, int(cfg.window.Seconds()*durPerSecond))
	fresh, err := freshEdges(cfg.seed, nb*(durBatch-durBatch/4))
	if err != nil {
		return nil, err
	}
	ch := &churn{boot: s.boot, fresh: fresh}
	bodies := make([][]byte, nb)
	firstIns := make([]edge.Edge, nb)
	var ackedLSN uint64
	for i := range bodies {
		b := ch.batch(durBatch)
		bodies[i], firstIns[i] = ingestBody(b), b[0].Edge
		ackedLSN += uint64(len(stream.Mirror(b)))
	}

	var c0 counters
	var sm *sampler
	if tr != nil {
		c0, sm = readCounters(s), startSampler(s)
	}
	loader, prober := newConn(s.base, tr), newConn(s.base, tr)
	defer loader.close()
	defer prober.close()
	var latest atomic.Pointer[probe]
	kick := make(chan struct{}, 1)
	loaderDone := make(chan struct{})
	var alat, vis, qlat dist
	var lfail, pfail, wrongProbe int
	var lerr, perr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(loaderDone)
		for i, body := range bodies {
			t0 := time.Now()
			r, err := loader.do("/v1/ingest", body, t0, tr != nil)
			if err != nil {
				lerr = err
				return
			}
			alat = append(alat, msSince(t0, r.end))
			var ack qserve.IngestReply
			if r.status != 200 || json.Unmarshal(r.body, &ack) != nil || ack.Applied != durBatch {
				lfail++
				continue
			}
			e := firstIns[i]
			latest.Store(&probe{batch: i, epoch: ack.Epoch, u: e.U, v: e.V, sent: t0})
			select {
			case kick <- struct{}{}:
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		last := -1
		for {
			select {
			case <-kick:
			case <-loaderDone:
				return
			}
			pr := latest.Load()
			if pr == nil || pr.batch == last {
				continue
			}
			last = pr.batch
			path := fmt.Sprintf("/v1/query/connected?u=%d&v=%d&minEpoch=%d", pr.u, pr.v, pr.epoch)
			t0 := time.Now()
			r, err := prober.do(path, nil, t0, tr != nil)
			if err != nil {
				perr = err
				return
			}
			qlat = append(qlat, msSince(t0, r.end))
			vis = append(vis, msSince(pr.sent, r.end))
			var env struct {
				Data qserve.ConnReply `json:"data"`
			}
			if r.status != 200 || json.Unmarshal(r.body, &env) != nil {
				pfail++
			} else if !env.Data.Connected {
				wrongProbe++
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	if lerr != nil {
		return nil, lerr
	}
	if perr != nil {
		return nil, perr
	}
	acked := len(alat) - lfail
	p.attempted = len(alat) + len(qlat)
	p.failed = lfail + pfail + wrongProbe
	if lfail+pfail > 0 {
		p.fail("%d ingests and %d read-your-writes probes failed", lfail, pfail)
	}
	if wrongProbe > 0 {
		p.fail("%d read-your-writes probes did not see their acked insert", wrongProbe)
	}
	ups := float64(acked*durBatch) / elapsed.Seconds()
	// The tail is the p99, not the p95 the ack figures print: about one
	// batch in twenty lands behind a refresh and waits tens of
	// milliseconds, so the p95 sits on the edge between the fast and
	// the refresh-blocked acks and jumps between them from run to run,
	// while the p99 lies inside the blocked acks.
	finishE2E(p, setup, alat, .99, ups)
	if tr != nil {
		sm.finish()
		p.layers = map[string]metric{}
		windowLayers(c0, readCounters(s), sm, acked, nil, p.layers)
	}
	p.line("ingest_mups", ups/1e6, "M updates/s", 0)
	p.latencies("ingest_ack", alat, .95)
	p.line("ingest_ack_p99_ms", alat.quantile(.99), "ms", len(alat))
	p.latencies("visible", vis, .95)
	p.latencies("query", qlat, .95)

	// Close and reopen: recovery must restore exactly the acked log and
	// the arcs the store held.
	if lsn := s.dur.Log().LSN(); lsn != ackedLSN {
		p.fail("log LSN %d after the window, acked %d", lsn, ackedLSN)
	}
	s.stopServing()
	before := durable.Dump(s.mgr.Store())
	closed = true
	if err := s.closeStore(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, info, err := durable.Open(s.n, 0, s.newStore, nil, durable.Config{Dir: s.dcfg.Dir, CheckpointEvery: ckptEvery})
	if err != nil {
		return nil, fmt.Errorf("reopening the store: %w", err)
	}
	recovery := time.Since(t0).Seconds()
	after := durable.Dump(d.Manager().Store())
	if err := d.Close(); err != nil {
		return nil, err
	}
	if info.LSN != ackedLSN {
		p.fail("recovered LSN %d, acked %d", info.LSN, ackedLSN)
	}
	if !sameArcs(before, after) {
		p.fail("recovered store holds %d arcs that differ from the %d before close", len(after), len(before))
	}
	p.line("recovery_s", recovery, "s", 0)
	p.line("recovered_arcs", float64(len(after)), "count", 0)
	return p, nil
}
