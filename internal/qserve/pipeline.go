package qserve

import (
	"snapdyn/internal/qcache"
	"snapdyn/internal/snapmgr"
)

// kernel executes one registered query kind against a pinned published
// view; keep=true copies payload slices out of pooled scratch into
// immutable slices for the cache.
type kernel func(v *snapmgr.View, a Args, keep bool) (qcache.Value, error)

// Pipeline is the serving flow every query kind runs, written once:
//
//	admit (queue-or-shed) → pin snapshot → validate vertex operands →
//	quick short-circuit → cache lookup → kernel (coalesced on miss).
//
// The executor supplies how to pin a snapshot together with its cache
// generation, and a kernel table over the pinned view. Both are bound
// once, at construction. The executor embeds the pipeline, so its
// Query and Counters are the executor's.
//
// The uncacheable and cache-disabled paths call the kernel directly —
// no singleflight closure — preserving the allocation-free steady
// state; only a cacheable miss pays the closure and the payload copy.
type Pipeline struct {
	adm *Admission
	// n is the engine's fixed vertex-set size, for operand validation.
	n int
	// pin returns the view a query runs against, the epoch lower bound
	// it is at least as fresh as, and its cache generation (nil when
	// caching is off).
	pin func() (*snapmgr.View, uint64, *qcache.Gen)
	// kernels is indexed by Spec.ID; a nil entry answers ErrUnsupported.
	kernels []kernel
}

// newPipeline binds the snapshot pin and kernel table to the admission
// policy. Kinds absent from kernels are not served.
func newPipeline(adm *Admission, n int, pin func() (*snapmgr.View, uint64, *qcache.Gen), kernels map[*Spec]kernel) Pipeline {
	tab := make([]kernel, len(specs))
	for sp, k := range kernels {
		tab[sp.id] = k
	}
	return Pipeline{adm: adm, n: n, pin: pin, kernels: tab}
}

// Query runs one registered kind against the current snapshot (or the
// live index, for live-path arguments). The reply is built in the named
// result, so a hit copies the cached value once.
func (pl *Pipeline) Query(sp *Spec, a Args) (res Result, err error) {
	if err = pl.adm.Acquire(); err != nil {
		return Result{}, err
	}
	defer pl.adm.Release()
	view, epoch, gen := pl.pin()
	if err = sp.Validate(a, pl.n); err != nil {
		return Result{}, err
	}
	res.Epoch = epoch
	var ok bool
	if res.Val, ok = sp.Quick(a); ok {
		return res, nil
	}
	run := pl.kernels[sp.id]
	if run == nil {
		return Result{}, ErrUnsupported
	}
	k, cacheable := sp.key(a)
	switch {
	case !cacheable:
		if a.Live {
			res.Cache = CacheLive
		}
	case gen == nil:
	default:
		if res.Val, ok = gen.Lookup(k); ok {
			res.Cache = CacheHit
			return res, nil
		}
		res.Cache = CacheMiss
		if res.Val, err = gen.Do(k, func() (qcache.Value, error) { return run(view, a, true) }); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	if res.Val, err = run(view, a, false); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Counters returns a point-in-time view of admission activity.
func (pl *Pipeline) Counters() Counters { return pl.adm.Counters() }
