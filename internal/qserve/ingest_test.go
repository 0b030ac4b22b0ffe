package qserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// TestIngestBounds: a body past maxIngestBody bytes and a batch of
// more than maxIngestUpdates updates each answer 413 (code too_large
// on /v1) and apply nothing; a batch of exactly maxIngestUpdates is
// accepted whole.
func TestIngestBounds(t *testing.T) {
	mgr, _ := newManager(t, 8, 61)
	ex := New(mgr, Config{Undirected: true})
	ts := httptest.NewServer(NewServer(ex, true, 1).Handler())
	defer ts.Close()

	post := func(path string, body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply map[string]any
		json.NewDecoder(resp.Body).Decode(&reply)
		return resp.StatusCode, reply
	}
	batch := func(k int, elem string) []byte {
		return []byte("[" + strings.TrimSuffix(strings.Repeat(elem+",", k), ",") + "]")
	}

	// Each padded update is 256 bytes, so the byte bound trips long
	// before the update bound would.
	pad := `{"u":1,"v":2,"t":3}`
	pad += strings.Repeat(" ", 256-len(pad)-1)
	oversized := batch(maxIngestBody/256+64, pad)
	if len(oversized) <= maxIngestBody || (maxIngestBody/256+64) > maxIngestUpdates {
		t.Fatalf("test body mis-sized: %d bytes", len(oversized))
	}
	overlong := batch(maxIngestUpdates+1, `{}`)
	if len(overlong) > maxIngestBody {
		t.Fatalf("over-long batch of %d bytes also exceeds the byte bound", len(overlong))
	}

	epoch, arcs := mgr.Epoch(), mgr.Store().NumEdges()
	for _, tc := range []struct {
		name string
		body []byte
	}{{"oversized body", oversized}, {"over-long batch", overlong}} {
		for _, path := range []string{"/ingest", "/v1/ingest"} {
			code, reply := post(path, tc.body)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s on %s: status %d, want 413 (%v)", tc.name, path, code, reply)
			}
			if path == "/v1/ingest" {
				obj, _ := reply["error"].(map[string]any)
				if obj == nil || obj["code"] != "too_large" {
					t.Fatalf("%s on %s: body %v, want error code too_large", tc.name, path, reply)
				}
			}
			if e, m := mgr.Epoch(), mgr.Store().NumEdges(); e != epoch || m != arcs {
				t.Fatalf("%s on %s applied updates: epoch %d -> %d, arcs %d -> %d", tc.name, path, epoch, e, arcs, m)
			}
		}
	}

	code, reply := post("/ingest", batch(maxIngestUpdates, `{"u":1,"v":2,"t":3}`))
	if code != http.StatusOK || reply["applied"] != float64(maxIngestUpdates) {
		t.Fatalf("batch at the bound: status %d, reply %v", code, reply)
	}
	if got, want := mgr.Store().NumEdges(), arcs+2*maxIngestUpdates; got != int64(want) {
		t.Fatalf("batch at the bound: %d arcs, want %d", got, want)
	}
}

// FuzzIngestBody posts arbitrary bytes to /ingest on a small graph.
// Every reply is 200, 400 or 413, nothing panics, and the store never
// holds an arc to a vertex outside the graph.
func FuzzIngestBody(f *testing.F) {
	for _, s := range []string{
		`[{"u":1,"v":2,"t":3}]`,
		`[{"u":1,"v":2,"t":3,"op":"delete"},{"u":0,"v":15,"op":"ins"}]`,
		`[{"u":1,"v":2,"op":"upsert"}]`,
		`[{"u":16,"v":0}]`,
		`[{"u":4294967295,"v":0}]`,
		`[{"u":-1,"v":0}]`,
		`[{"u":1.5,"v":0}]`,
		`[{}]`, `[]`, `null`, ``, `{}`, `[`, `[{"u":1,`, `[1,2]`, `[[{"u":1}]]`,
		`[{"u":1,"v":2}] trailing`, `"text"`,
	} {
		f.Add([]byte(s))
	}
	const n = 16
	f.Fuzz(func(t *testing.T, body []byte) {
		store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 64, 0, 1))
		store.ApplyBatch(1, stream.Mirror([]edge.Update{{Edge: edge.Edge{U: 0, V: 1, T: 1}}}))
		mgr := snapmgr.New(1, store)
		srv := NewServer(New(mgr, Config{Undirected: true}), true, 1).Handler()

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d (%s)", body, rec.Code, rec.Body)
		}
		g := mgr.Refresh(1)
		for _, v := range g.Adj {
			if int(v) >= n {
				t.Fatalf("body %q: arc to vertex %d outside [0,%d)", body, v, n)
			}
		}
	})
}
