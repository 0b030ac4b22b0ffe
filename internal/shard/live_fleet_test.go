package shard

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// TestFleetLiveQuiesce is the fleet's consistency oracle: per-shard
// forests joined by label merge must agree exactly with the fleet's
// next published snapshot set — component count and sampled pair
// connectivity — after every churn round (inserts and deletes, tree
// edges included).
func TestFleetLiveQuiesce(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		n, ups := testUpdates(t, 8, 6, 31)
		ups = stream.Mirror(ups)
		f := testFleet(n, p, ups)
		ex := NewExecutor(f, qserve.Config{Undirected: true})
		ex.EnableLive()

		r := xrand.New(uint64(900 + p))
		var alive []edge.Edge
		nextT := uint32(1 << 20)
		for round := 0; round < 6; round++ {
			var batch []edge.Update
			dels := 15
			if dels > len(alive) {
				dels = len(alive)
			}
			for i := 0; i < dels; i++ {
				j := int(r.Uint32n(uint32(len(alive))))
				e := alive[j]
				alive[j] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
			}
			for i := 0; i < 25; i++ {
				u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
				if u == v {
					continue
				}
				e := edge.Edge{U: u, V: v, T: nextT}
				nextT++
				alive = append(alive, e)
				batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
			}
			if _, err := ex.Ingest(1, stream.Mirror(batch)); err != nil {
				t.Fatal(err)
			}

			f.Refresh(2)
			snap, err := qserve.Components(ex)
			if err != nil {
				t.Fatal(err)
			}
			if live := ex.Live().Components(); live != snap.Components {
				t.Fatalf("shards=%d round %d: merged forests have %d components, snapshot %d",
					p, round, live, snap.Components)
			}
			for i := 0; i < 20; i++ {
				u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
				lr, err := qserve.ConnectedLive(ex, u, v)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := qserve.Connected(ex, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if lr.Connected != sr.Connected {
					t.Fatalf("shards=%d round %d: ConnectedLive(%d,%d) = %v, snapshot %v",
						p, round, u, v, lr.Connected, sr.Connected)
				}
				if !lr.Live {
					t.Fatalf("shards=%d: live reply not flagged live: %+v", p, lr)
				}
				if u != v && lr.Hops != -1 {
					t.Fatalf("shards=%d: live reply claims a hop count: %+v", p, lr)
				}
			}
		}
	}
}

// TestFleetLiveUnsupportedUntilEnabled pins the fleet's live contract:
// ErrUnsupported before EnableLive, the reflexive quick answer
// excepted.
func TestFleetLiveUnsupportedUntilEnabled(t *testing.T) {
	n, ups := testUpdates(t, 6, 4, 37)
	f := testFleet(n, 2, stream.Mirror(ups))
	ex := NewExecutor(f, qserve.Config{Undirected: true})

	if _, err := qserve.ConnectedLive(ex, 1, 2); !errors.Is(err, qserve.ErrUnsupported) {
		t.Fatalf("fleet ConnectedLive before EnableLive: err = %v, want ErrUnsupported", err)
	}
	r, err := qserve.ConnectedLive(ex, 5, 5)
	if err != nil || !r.Connected || r.Hops != 0 {
		t.Fatalf("reflexive live reply %+v, %v", r, err)
	}
	ex.EnableLive()
	if _, err := qserve.ConnectedLive(ex, 1, 2); err != nil {
		t.Fatalf("fleet ConnectedLive after EnableLive: %v", err)
	}
}

// TestFleetHTTPQuerySurface serves the fleet executor through the same
// registry-generated HTTP surface as the single-snapshot engine: every
// analytics kind and live connectivity answer over /v1, and the offline
// betweenness job — which needs a resident global CSR no shard has —
// answers 501 unsupported at POST.
func TestFleetHTTPQuerySurface(t *testing.T) {
	n, ups := testUpdates(t, 8, 6, 41)
	f := testFleet(n, 4, stream.Mirror(ups))
	ex := NewExecutor(f, qserve.Config{Undirected: true})
	ex.EnableLive()
	ts := httptest.NewServer(qserve.NewServer(ex, true, 1).Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	for _, tc := range []struct{ kind, params string }{
		{"clustering", ""},
		{"khop", "?src=1&k=2"},
		{"pagerank", ""},
		{"connected", "?u=1&v=2&live=1"},
	} {
		code, env := get("/v1/query/" + tc.kind + tc.params)
		if code != http.StatusOK {
			t.Fatalf("fleet %s%s: status %d (%v)", tc.kind, tc.params, code, env)
		}
		if env["kind"] != tc.kind || env["data"] == nil {
			t.Fatalf("fleet %s%s: envelope %v", tc.kind, tc.params, env)
		}
		if tc.params == "?u=1&v=2&live=1" && env["cache"] != "live" {
			t.Fatalf("fleet live query disposition %v, want live", env["cache"])
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs/betweenness", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("fleet betweenness job: status %d, want 501 (%v)", resp.StatusCode, body)
	}
	obj, _ := body["error"].(map[string]any)
	if obj == nil || obj["code"] != "unsupported" {
		t.Fatalf("fleet betweenness job error body %v", body)
	}
}
