package qserve

import (
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"testing"

	"snapdyn/internal/qcache"
)

// TestRegistryCatalog pins the registry's structural invariants: the
// seven kinds registered in a fixed order with dense ids, unique wire
// names, and one reserved cache-key space each. The executor's kernel
// table and the HTTP route table are both generated from this catalog,
// so its shape is API surface.
func TestRegistryCatalog(t *testing.T) {
	wantNames := []string{
		"bfs", "sssp", "connected", "components",
		"clustering", "khop", "pagerank",
	}
	sps := Specs()
	if len(sps) != len(wantNames) || NumSpecs() != len(wantNames) {
		t.Fatalf("registered %d kinds (NumSpecs %d), want %d", len(sps), NumSpecs(), len(wantNames))
	}
	seenKind := map[qcache.Kind]string{}
	for i, sp := range sps {
		if sp.Name() != wantNames[i] {
			t.Fatalf("spec %d named %q, want %q", i, sp.Name(), wantNames[i])
		}
		if sp.ID() != i {
			t.Fatalf("spec %q has id %d, want dense registration index %d", sp.Name(), sp.ID(), i)
		}
		if prev, dup := seenKind[sp.CacheKind()]; dup {
			t.Fatalf("kinds %q and %q share cache kind %d", prev, sp.Name(), sp.CacheKind())
		}
		seenKind[sp.CacheKind()] = sp.Name()
		if got := LookupSpec(sp.Name()); got != sp {
			t.Fatalf("LookupSpec(%q) = %p, want %p", sp.Name(), got, sp)
		}
	}
	if LookupSpec("no-such-kind") != nil {
		t.Fatal("LookupSpec resolved an unregistered name")
	}
}

// TestRegisterRejectsCollisions asserts the registration-time guards: a
// duplicate wire name and a shared cache kind both panic before
// mutating the catalog, so a collision cannot ship.
func TestRegisterRejectsCollisions(t *testing.T) {
	before := NumSpecs()
	mustPanic := func(name string, sp *Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("register(%s) did not panic", name)
			}
		}()
		register(sp)
	}
	mustPanic("duplicate name", &Spec{name: "bfs", kind: qcache.Kind(200)})
	mustPanic("shared cache kind", &Spec{name: "bfs2", kind: SpecBFS.CacheKind()})
	if NumSpecs() != before {
		t.Fatalf("failed registration mutated the catalog: %d kinds, want %d", NumSpecs(), before)
	}
	if LookupSpec("bfs2") != nil {
		t.Fatal("failed registration left a name binding behind")
	}
}

// TestCacheKeysDistinctAcrossKinds is the cross-kind collision test:
// every cacheable kind, handed an identical argument payload, must
// derive a distinct qcache.Key — the registered cache kind namespaces
// the key, so a BFS from vertex 3 can never alias a k-hop query whose
// operands happen to encode the same integers.
func TestCacheKeysDistinctAcrossKinds(t *testing.T) {
	argSets := []Args{
		{},
		{A: 3},
		{A: 3, B: 7},
		{A: 1 << 40, B: 1},
	}
	for _, a := range argSets {
		seen := map[qcache.Key]string{}
		for _, sp := range Specs() {
			k, ok := sp.CacheKey(a)
			if !ok {
				t.Fatalf("%q: snapshot-path args %+v unexpectedly uncacheable", sp.Name(), a)
			}
			if k.Kind != sp.CacheKind() {
				t.Fatalf("%q derives keys in kind %d, registered %d", sp.Name(), k.Kind, sp.CacheKind())
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("args %+v: kinds %q and %q collide on key %+v", a, prev, sp.Name(), k)
			}
			seen[k] = sp.Name()
		}
	}

	// The live connectivity path must refuse a key outright: its answers
	// come from a mutating index and may never enter a snapshot-pinned
	// generation.
	if _, ok := SpecConnected.CacheKey(Args{A: 1, B: 2, Live: true}); ok {
		t.Fatal("live connectivity derived a cache key")
	}
}

// TestGenericQueryMatchesTyped runs each kind through the registry's
// generic Query entry point and through its typed convenience method
// and demands identical replies — the typed surface is a projection of
// the registry, not a second implementation.
func TestGenericQueryMatchesTyped(t *testing.T) {
	mgr, _ := newManager(t, 8, 53)
	ex := New(mgr, Config{Undirected: true})

	{
		a := Args{A: 3}
		r, err := ex.Query(SpecBFS, a)
		typed, err2 := BFS(ex, 3)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if BFSReplyFrom(a, r) != typed {
			t.Fatalf("bfs: generic %+v, typed %+v", BFSReplyFrom(a, r), typed)
		}
	}
	{
		a := Args{A: 3, B: 0}
		r, err := ex.Query(SpecSSSP, a)
		typed, err2 := SSSP(ex, 3, 0)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if SSSPReplyFrom(a, r) != typed {
			t.Fatalf("sssp: generic %+v, typed %+v", SSSPReplyFrom(a, r), typed)
		}
	}
	{
		a := Args{A: 1, B: 2}
		r, err := ex.Query(SpecConnected, a)
		typed, err2 := Connected(ex, 1, 2)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if ConnReplyFrom(a, r) != typed {
			t.Fatalf("connected: generic %+v, typed %+v", ConnReplyFrom(a, r), typed)
		}
	}
	{
		r, err := ex.Query(SpecComponents, Args{})
		typed, err2 := Components(ex)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if ComponentsReplyFrom(r) != typed {
			t.Fatalf("components: generic %+v, typed %+v", ComponentsReplyFrom(r), typed)
		}
	}
	{
		r, err := ex.Query(SpecClustering, Args{})
		typed, err2 := Clustering(ex)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if ClusteringReplyFrom(r) != typed {
			t.Fatalf("clustering: generic %+v, typed %+v", ClusteringReplyFrom(r), typed)
		}
	}
	{
		a := Args{A: 3, B: 2}
		r, err := ex.Query(SpecKHop, a)
		typed, err2 := KHop(ex, 3, 2)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if KHopReplyFrom(a, r) != typed {
			t.Fatalf("khop: generic %+v, typed %+v", KHopReplyFrom(a, r), typed)
		}
	}
	{
		a := PageRankArgs(1e-6)
		r, err := ex.Query(SpecPageRank, a)
		typed, err2 := PageRank(ex, 1e-6)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if PageRankReplyFrom(a, r) != typed {
			t.Fatalf("pagerank: generic %+v, typed %+v", PageRankReplyFrom(a, r), typed)
		}
	}
}

// TestDecodeRejectsBadParams walks the registered decoders through
// malformed parameter sets: every rejection must come back as a
// bad-request error, never a zero-valued Args that silently queries
// vertex 0.
func TestDecodeRejectsBadParams(t *testing.T) {
	cases := []struct {
		kind  string
		query string
	}{
		{"bfs", ""},                         // missing src
		{"bfs", "src=x"},                    // non-numeric
		{"bfs", "src=-1"},                   // negative
		{"sssp", "src=1&delta=abc"},         // bad delta
		{"connected", "u=1"},                // missing v
		{"connected", "u=1&v=2&live=maybe"}, // bad live flag
		{"khop", "src=1"},                   // missing k
		{"khop", "src=1&k=-3"},              // negative k
		{"pagerank", "tol=0"},               // non-positive tol
		{"pagerank", "tol=NaN"},             // NaN tol
		{"pagerank", "tol=+Inf"},            // infinite tol
		{"pagerank", "tol=bogus"},           // non-numeric tol
	}
	for _, tc := range cases {
		sp := LookupSpec(tc.kind)
		if sp == nil {
			t.Fatalf("kind %q not registered", tc.kind)
		}
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Decode(q); err == nil {
			t.Errorf("%s?%s: decode accepted malformed parameters", tc.kind, tc.query)
		}
	}

	// PageRank's default and floor: no tol means DefaultPageRankTol, a
	// sub-floor tol clamps to the termination floor.
	q, _ := url.ParseQuery("")
	a, err := LookupSpec("pagerank").Decode(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := pageRankTol(a); got != DefaultPageRankTol {
		t.Fatalf("default tol = %v, want %v", got, DefaultPageRankTol)
	}
	q, _ = url.ParseQuery("tol=1e-300")
	a, err = LookupSpec("pagerank").Decode(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := pageRankTol(a); got != minPageRankTol {
		t.Fatalf("sub-floor tol = %v, want floor %v", got, minPageRankTol)
	}
}

// FuzzDecode drives arbitrary query strings through every registered
// decoder, parsed the way the HTTP layer parses them (a malformed
// escape still yields the values before it). A decoder must never
// panic; it either rejects with a bad-request error or returns Args
// inside the kind's documented ranges, which the kind's encoder then
// renders.
func FuzzDecode(f *testing.F) {
	for _, s := range []string{
		"", "src=3", "delta=25&src=7", "live=1&u=1&v=9", "u=1&v=2&live=maybe",
		"k=2&src=5", "k=99999999999&src=1", "tol=0.0001", "tol=1e-300", "tol=NaN",
		"tol=-1", "src=%zz", "src=1&src=2", "src=4294967296", "delta=-9223372036854775808&src=0",
		"minEpoch=3&src=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		for _, sp := range Specs() {
			a, err := sp.Decode(q)
			if err != nil {
				var bad errBadRequest
				if !errors.As(err, &bad) {
					t.Fatalf("%s?%q: error %v is not a bad-request error", sp.Name(), raw, err)
				}
				continue
			}
			if (sp.vertexA && a.A > math.MaxUint32) || (sp.vertexB && a.B > math.MaxUint32) {
				t.Fatalf("%s?%q: vertex operand out of uint32 range: %+v", sp.Name(), raw, a)
			}
			switch sp {
			case SpecKHop:
				if a.B > maxKHop {
					t.Fatalf("khop?%q: k = %d above the cap", raw, a.B)
				}
			case SpecPageRank:
				if tol := pageRankTol(a); math.IsNaN(tol) || math.IsInf(tol, 0) || tol < minPageRankTol {
					t.Fatalf("pagerank?%q: tolerance %v outside [floor, +Inf)", raw, tol)
				}
			}
			if _, err := json.Marshal(sp.Encode(a, Result{})); err != nil {
				t.Fatalf("%s?%q: reply does not encode: %v", sp.Name(), raw, err)
			}
		}
	})
}
