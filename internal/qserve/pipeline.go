package qserve

import "snapdyn/internal/qcache"

// Kernel executes one registered query kind against an engine's pinned
// snapshot P; keep=true copies payload slices out of pooled scratch
// into immutable slices for the cache.
type Kernel[P any] func(pin P, a Args, keep bool) (qcache.Value, error)

// Pipeline is the serving flow every engine runs, written once:
//
//	admit (queue-or-shed) → pin snapshot → validate vertex operands →
//	quick short-circuit → cache lookup → kernel (coalesced on miss).
//
// An engine supplies exactly two things: how to pin a snapshot (a
// single published view, or one view per shard) together with its
// cache generation, and a kernel table over that pin. Both are bound
// once, at construction. Engines embed the pipeline, so its Query and
// Counters are the engine's.
//
// The uncacheable and cache-disabled paths call the kernel directly —
// no singleflight closure — preserving the allocation-free steady
// state; only a cacheable miss pays the closure and the payload copy.
type Pipeline[P any] struct {
	adm *Admission
	// n is the engine's fixed vertex-set size, for operand validation.
	n int
	// pin returns the snapshot a query runs against, the epoch lower
	// bound it is at least as fresh as, and its cache generation (nil
	// when caching is off). unpin, when set, hands the pin back.
	pin   func() (P, uint64, *qcache.Gen)
	unpin func(P)
	// kernels is indexed by Spec.ID; a nil entry answers ErrUnsupported.
	kernels []Kernel[P]
}

// NewPipeline binds an engine's snapshot pin and kernel table to the
// admission policy. Kinds absent from kernels are not served by the
// engine.
func NewPipeline[P any](adm *Admission, n int, pin func() (P, uint64, *qcache.Gen), unpin func(P), kernels map[*Spec]Kernel[P]) Pipeline[P] {
	tab := make([]Kernel[P], len(specs))
	for sp, k := range kernels {
		tab[sp.id] = k
	}
	return Pipeline[P]{adm: adm, n: n, pin: pin, unpin: unpin, kernels: tab}
}

// Query runs one registered kind against the engine's current snapshot
// (or its live index, for live-path arguments). The reply is built in
// the named result, so a hit copies the cached value once.
func (pl *Pipeline[P]) Query(sp *Spec, a Args) (res Result, err error) {
	if err = pl.adm.Acquire(); err != nil {
		return Result{}, err
	}
	pin, epoch, gen := pl.pin()
	defer pl.release(pin)
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
		if res.Val, err = gen.Do(k, func() (qcache.Value, error) { return run(pin, a, true) }); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	if res.Val, err = run(pin, a, false); err != nil {
		return Result{}, err
	}
	return res, nil
}

// release hands the pin back before freeing the admission slot, so a
// queued query that wakes finds it on the engine's free list.
func (pl *Pipeline[P]) release(pin P) {
	if pl.unpin != nil {
		pl.unpin(pin)
	}
	pl.adm.Release()
}

// Counters returns a point-in-time view of admission activity.
func (pl *Pipeline[P]) Counters() Counters { return pl.adm.Counters() }
