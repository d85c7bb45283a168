package graph

import "math"

// leaseRing tracks active reader refcounts per epoch. Leases are
// near-monotone — the coordinator acquires at the current epoch and
// releases the oldest in-flight one a few sub-batches later — so a
// dense ring indexed by epoch offset beats the refcount map it
// replaced: acquire and release are O(1) amortized instead of the
// O(active leases) rescan the map needed to recompute the minimum.
//
// refs[head+k] is the refcount at epoch base+k; base is always the
// epoch of refs[head], and whenever total > 0, refs[head] > 0 (release
// advances head past zero slots), so the minimum held epoch is simply
// base. The span of the ring is bounded by the epoch distance between
// the oldest and newest lease: the coordinator's dispatch is the only
// lessee, FIFO and at most pipeline depth deep, so a handful of uint32
// slots.
//
// All methods require the caller to hold the owning Graph's gcMu.
type leaseRing struct {
	base     Epoch    // epoch of refs[head]
	refs     []uint32 // refcounts at base, base+1, ... (from head)
	head     int      // index of base's slot
	distinct int      // epochs with a nonzero refcount
	total    int      // outstanding leases
}

// acquire registers one lease at epoch e.
func (r *leaseRing) acquire(e Epoch) {
	if r.total == 0 {
		r.base = e
		r.head = 0
		r.refs = r.refs[:0]
	} else if e < r.base {
		// Leases are near-monotone; an acquire below the current
		// minimum is legal but rare. Reindex by shifting everything up.
		gap := int(r.base - e)
		live := r.refs[r.head:]
		grown := make([]uint32, gap+len(live))
		copy(grown[gap:], live)
		r.refs = grown
		r.head = 0
		r.base = e
	}
	idx := r.head + int(e-r.base)
	for len(r.refs) <= idx {
		r.refs = append(r.refs, 0)
	}
	if r.refs[idx] == 0 {
		r.distinct++
	}
	r.refs[idx]++
	r.total++
}

// release retires one lease at epoch e. Releasing an epoch that was
// never acquired is a no-op (mirroring the map's old behaviour).
func (r *leaseRing) release(e Epoch) {
	if r.total == 0 || e < r.base {
		return
	}
	idx := r.head + int(e-r.base)
	if idx >= len(r.refs) || r.refs[idx] == 0 {
		return
	}
	r.refs[idx]--
	r.total--
	if r.refs[idx] > 0 {
		return
	}
	r.distinct--
	if r.total == 0 {
		r.refs = r.refs[:0]
		r.head = 0
		return
	}
	if idx == r.head {
		// Advance the minimum past released epochs; total > 0
		// guarantees a nonzero slot stops the walk.
		for r.refs[r.head] == 0 {
			r.head++
			r.base++
		}
		// Compact occasionally so a long-lived ring doesn't keep its
		// dead prefix forever (amortized O(1), same policy as the
		// graph's FIFO and GC queues).
		if r.head > 1024 && r.head*2 > len(r.refs) {
			r.refs = append(r.refs[:0:0], r.refs[r.head:]...)
			r.head = 0
		}
	}
}

// min returns the smallest held epoch, or MaxUint64 when no lease is
// outstanding (the value cached in Graph.minRC).
func (r *leaseRing) min() uint64 {
	if r.total == 0 {
		return math.MaxUint64
	}
	return uint64(r.base)
}
