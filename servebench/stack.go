package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/wal"
)

// The fixed set-up. Everything not named here is a snapserve default.
const (
	scale      = 16 // n = 65,536
	edgeFactor = 8
	timeMax    = 100
	cacheBytes = 64 << 20
	ckptEvery  = 1 << 20
)

var refreshPolicy = snapmgr.Policy{MaxDirty: 4096, MaxAge: 500 * time.Millisecond}

// stack is one serving stack built the way cmd/snapserve builds it,
// with live connectivity on, served on a loopback listener.
type stack struct {
	n    int
	seed uint64
	boot []edge.Edge // the bootstrap graph, in generation order
	mgr  *snapmgr.Manager
	ex   *qserve.Executor
	dur  *durable.Store // nil on the volatile ingest path
	dcfg durable.Config
	srv  *http.Server
	base string
	done chan error
}

// buildStack generates the seed's R-MAT graph and brings the stack up.
// A non-empty walDir selects the durable ingest path; tr, when set,
// installs the tracing probes.
func buildStack(seed uint64, walDir string, tr *tracer) (*stack, error) {
	n := 1 << scale
	edges, err := rmat.Generate(0, rmat.PaperParams(scale, edgeFactor*n, timeMax, seed))
	if err != nil {
		return nil, fmt.Errorf("generating R-MAT graph: %w", err)
	}
	ups := stream.Mirror(stream.Inserts(edges))
	s := &stack{n: n, seed: seed, boot: edges}
	if walDir != "" {
		s.dcfg = durable.Config{Dir: walDir, CheckpointEvery: ckptEvery}
		if tr != nil {
			s.dcfg.Hook = tr.durableStage
			s.dcfg.WAL = wal.Options{OpenFile: tr.openFile, Hook: tr.walPoint}
		}
		d, _, err := durable.Open(n, 0, s.newStore, ups, s.dcfg)
		if err != nil {
			return nil, err
		}
		s.dur, s.mgr = d, d.Manager()
	} else {
		store := dyngraph.NewTracked(s.newStore(n))
		store.ApplyBatch(0, ups)
		s.mgr = snapmgr.New(0, store)
	}
	s.mgr.Start(refreshPolicy)
	s.ex = qserve.New(s.mgr, qserve.Config{Workers: 1, Undirected: true, CacheBytes: cacheBytes})
	if s.dur != nil {
		s.ex.SetIngest(s.dur.Ingest)
	}
	s.ex.EnableLive()

	var h http.Handler = qserve.NewServer(s.ex, true, 0).Handler()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	if tr != nil {
		s.srv.Handler, s.srv.ConnContext = tr.middleware(s.ex)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStore()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *stack) newStore(n int) dyngraph.Store {
	return dyngraph.NewHybrid(n, 4*len(s.boot), 0, s.seed)
}

// stopServing closes the listener and every connection, and waits for
// the server goroutine.
func (s *stack) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "servebench: server: %v\n", err)
	}
}

// closeStore stops the refresher and, on the durable path, flushes the
// batcher, writes the final checkpoint and closes the log.
func (s *stack) closeStore() error {
	if s.dur != nil {
		return s.dur.Close()
	}
	s.mgr.Stop()
	return nil
}

func (s *stack) close() error {
	s.stopServing()
	return s.closeStore()
}
