package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one request
// share req, the id of the request's root "client" span.
type span struct {
	id, parent, req uint64
	name            string
	kind            string // query kind, or "ingest"
	cache           qserve.CacheState
	start, end      int64 // ns since the tracer started
}

func (s span) dur() int64 { return s.end - s.start }

// tracer holds the spans of a traced run in memory, and the probes that
// record them: the load generator's client spans, middleware around the
// server's handler, a wrapping qserve.Engine, the durable commit-stage
// hook and a timing wrapper around the WAL's files.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
	ckpts dist // checkpoint write-to-install times, ms

	// ingest is the durable ingest in flight, which the commit-stage
	// hook and the WAL file wrapper attach their spans to. The
	// durable-ingest workload has a single loader, so there is at most
	// one.
	ingest    atomic.Pointer[ingestState]
	ckptStart atomic.Int64
}

type ingestState struct {
	span, req uint64
	start     int64
	walSpan   uint64 // written and read on the flusher goroutine only
	appendAt  int64
	applyAt   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// connSlot is the per-connection probe state. A connection's requests
// are served one at a time on one goroutine, so the request being
// served is a plain field, and each connection gets its own qserve
// Server over its own wrapping engine that knows which request it is
// serving.
type connSlot struct {
	once sync.Once
	h    http.Handler
	cur  *active
}

type active struct{ span, req uint64 }

type slotKey struct{}

// middleware wraps the server's handler. It returns the handler and
// the ConnContext hook that gives each connection its slot.
func (t *tracer) middleware(ex *qserve.Executor) (http.Handler, func(context.Context, net.Conn) context.Context) {
	connCtx := func(ctx context.Context, _ net.Conn) context.Context {
		return context.WithValue(ctx, slotKey{}, &connSlot{})
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot := r.Context().Value(slotKey{}).(*connSlot)
		slot.once.Do(func() {
			slot.h = qserve.NewServer(&tracedEngine{Executor: ex, t: t, slot: slot}, true, 0).Handler()
		})
		req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if req == 0 {
			slot.h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		id := t.newID()
		slot.cur = &active{span: id, req: req}
		slot.h.ServeHTTP(w, r)
		slot.cur = nil
		kind := "ingest"
		if r.Method == http.MethodGet {
			kind = r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		}
		t.add(span{id: id, parent: req, req: req, name: "http", kind: kind, start: start, end: t.now()})
	})
	return h, connCtx
}

// tracedEngine times the engine calls the server makes and reads each
// query's cache disposition.
type tracedEngine struct {
	*qserve.Executor
	t    *tracer
	slot *connSlot
}

func (e *tracedEngine) Query(sp *qserve.Spec, a qserve.Args) (qserve.Result, error) {
	cur := e.slot.cur
	if cur == nil {
		return e.Executor.Query(sp, a)
	}
	start := e.t.now()
	res, err := e.Executor.Query(sp, a)
	e.t.add(span{id: e.t.newID(), parent: cur.span, req: cur.req, name: "engine.query",
		kind: sp.Name(), cache: res.Cache, start: start, end: e.t.now()})
	return res, err
}

func (e *tracedEngine) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	cur := e.slot.cur
	if cur == nil {
		return e.Executor.WaitEpoch(min, timeout)
	}
	start := e.t.now()
	ep, err := e.Executor.WaitEpoch(min, timeout)
	e.t.add(span{id: e.t.newID(), parent: cur.span, req: cur.req, name: "engine.wait", start: start, end: e.t.now()})
	return ep, err
}

func (e *tracedEngine) Ingest(workers int, batch []edge.Update) (uint64, error) {
	cur := e.slot.cur
	if cur == nil {
		return e.Executor.Ingest(workers, batch)
	}
	st := &ingestState{span: e.t.newID(), req: cur.req, start: e.t.now()}
	e.t.ingest.Store(st)
	ep, err := e.Executor.Ingest(workers, batch)
	e.t.ingest.CompareAndSwap(st, nil)
	e.t.add(span{id: st.span, parent: cur.span, req: cur.req, name: "engine.ingest", kind: "ingest",
		start: st.start, end: e.t.now()})
	return ep, err
}

// durableStage is the durable.Config.Hook: it cuts the in-flight
// ingest into batcher wait (engine call to WAL append), WAL append and
// apply.
func (t *tracer) durableStage(stage string) {
	st := t.ingest.Load()
	if st == nil {
		return
	}
	now := t.now()
	switch stage {
	case "pre-append":
		t.add(span{id: t.newID(), parent: st.span, req: st.req, name: "batcher.wait", start: st.start, end: now})
		st.walSpan, st.appendAt = t.newID(), now
	case "post-append":
		t.add(span{id: st.walSpan, parent: st.span, req: st.req, name: "wal.append", start: st.appendAt, end: now})
		st.applyAt = now
	case "post-apply":
		t.add(span{id: t.newID(), parent: st.span, req: st.req, name: "durable.apply", start: st.applyAt, end: now})
	}
}

// walPoint is the wal.Options.Hook: it closes a checkpoint's timing.
func (t *tracer) walPoint(point string) {
	if point != "ckpt-renamed" {
		return
	}
	ms := float64(t.now()-t.ckptStart.Load()) / 1e6
	t.mu.Lock()
	t.ckpts = append(t.ckpts, ms)
	t.mu.Unlock()
}

// openFile is the wal.Options.OpenFile: segment files are timed per
// Write and Sync; a checkpoint file starts a checkpoint's timing.
func (t *tracer) openFile(path string) (wal.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ckpt := strings.HasPrefix(filepath.Base(path), "ckpt-")
	if ckpt {
		t.ckptStart.Store(t.now())
		return f, nil
	}
	return &timedFile{f: f, t: t}, nil
}

type timedFile struct {
	f *os.File
	t *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.f.Write(p)
	f.t.walOp("wal.write", start)
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.t.now()
	err := f.f.Sync()
	f.t.walOp("wal.sync", start)
	return err
}

func (f *timedFile) Close() error { return f.f.Close() }

// walOp records a segment write or sync; inside a traced ingest's WAL
// append it becomes that append's child, otherwise it stands alone.
func (t *tracer) walOp(name string, start int64) {
	s := span{id: t.newID(), name: name, start: start, end: t.now()}
	if st := t.ingest.Load(); st != nil && st.walSpan != 0 {
		s.parent, s.req = st.walSpan, st.req
	}
	t.add(s)
}

// selfSums returns, for each request rooted at a client span, the sum
// of its spans' self times — a span's duration minus the part of it
// its children cover — and the root's duration. The two agree when
// every span nests inside its parent and siblings do not overlap.
func selfSums(spans []span) (sums, roots []int64) {
	children := map[uint64][]span{}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		if s.req == 0 {
			continue
		}
		byReq[s.req] = append(byReq[s.req], s)
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for req, group := range byReq {
		var root *span
		var sum int64
		for i := range group {
			s := group[i]
			if s.id == req && s.name == "client" {
				root = &group[i]
			}
			sum += s.dur() - covered(s, children[s.id])
		}
		if root != nil {
			sums = append(sums, sum)
			roots = append(roots, root.dur())
		}
	}
	return sums, roots
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// dump writes the spans as JSON lines, after a header line with the
// run's provenance.
func (t *tracer) dump(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(prov)
	type rec struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Req    uint64 `json:"req,omitempty"`
		Name   string `json:"name"`
		Kind   string `json:"kind,omitempty"`
		Cache  string `json:"cache,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, s := range t.spans {
		r := rec{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Kind: s.kind, Start: s.start, End: s.end}
		if s.name == "engine.query" {
			r.Cache = s.cache.String()
		}
		enc.Encode(r)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
