package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// spanHeader carries a traced request's id from the load generator to
// the server-side probes.
const spanHeader = "X-Bench-Span"

// conn is one client connection: a transport that keeps exactly one
// connection to the server open, so the load generator's connection
// count is the number of conns it makes.
type conn struct {
	hc   *http.Client
	base string
	tr   *tracer
	buf  bytes.Buffer
}

func newConn(base string, tr *tracer) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: t, Timeout: time.Minute}, base: base, tr: tr}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// reply is one completed round trip. body aliases the conn's buffer and
// is valid until the conn's next request.
type reply struct {
	status int
	body   []byte
	end    time.Time
}

// do sends one request; body non-nil makes it a POST. start is when the
// request counts as sent (its due time when the sender ran late), and
// traced asks the probes to record the request's spans.
func (c *conn) do(path string, body []byte, start time.Time, traced bool) (reply, error) {
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	var id uint64
	if traced && c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		if sent := c.tr.now(); sent > c.tr.at(start) {
			// The sender was backed up: the wait for it is the load
			// generator's, not the server's.
			c.tr.add(span{id: c.tr.newID(), parent: id, req: id, name: "loadgen.wait", start: c.tr.at(start), end: sent})
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("reading %s: %w", path, err)
	}
	if id != 0 {
		c.tr.add(span{id: id, req: id, name: "client", start: c.tr.at(start), end: c.tr.at(end)})
	}
	return reply{status: resp.StatusCode, body: c.buf.Bytes(), end: end}, nil
}

// event is one scheduled request of an open loop.
type event struct {
	due  time.Duration // offset from the window start
	path string
	body []byte // non-nil: an /ingest POST
}

// outcome is what an open-loop sender observed for one event.
type outcome struct {
	ev     *event
	lat    time.Duration // from due time (sender backed up) or actual send
	late   time.Duration // actual send minus due time
	status int
	body   []byte
	err    error
}

// openLoop plays sched over conns, each sender taking the next due
// event. A sender that is early sleeps and times the request from its
// actual send, so timer oversleep is not charged to the server; a
// sender that is behind sends at once and times the request from its
// due time, so the stall is charged to every request it delays.
// handle runs on the sender's goroutine after each round trip.
func openLoop(conns []*conn, sched []event, traced bool, handle func(sender int, o outcome)) {
	var next atomic.Int64
	t0 := time.Now()
	done := make(chan struct{})
	for i, c := range conns {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				ev := &sched[k]
				due := t0.Add(ev.due)
				start := due
				if now := time.Now(); now.Before(due) {
					time.Sleep(due.Sub(now))
					start = time.Now()
				}
				o := outcome{ev: ev, late: time.Since(due)}
				r, err := c.do(ev.path, ev.body, start, traced)
				o.status, o.body, o.err = r.status, r.body, err
				if err == nil {
					o.lat = r.end.Sub(start)
				}
				handle(i, o)
			}
		}()
	}
	for range conns {
		<-done
	}
}
