package ckptfmt

import "sync"

// Arena recycles byte buffers across frame decodes and restore calls. The
// restore hot path used to allocate a fresh multi-megabyte staging buffer
// per shard fetch and per decompressed frame; for non-dedupable payloads
// (every chunk distinct, nothing skippable) that allocation churn is pure
// frame tax. An Arena turns those into pool round-trips: Get hands back a
// previously released buffer when one is large enough, and Put releases a
// buffer once nothing aliases it.
//
// The backing store is a sync.Pool, so buffers are effectively per-worker
// (per-P) without any explicit worker indexing, and the pool sheds memory
// under GC pressure instead of pinning high-water marks.
//
// Contract: a buffer handed to Put must not be referenced afterwards —
// callers that return decoded data to their own callers must either copy it
// out first or skip the Put. Get returns buffers with undefined contents.
type Arena struct {
	pool sync.Pool
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Shared is the process-wide arena the restore path threads its buffers
// through: the store draws section buffers and span read buffers from it,
// and a restore hands each section buffer back once its payloads are applied
// — unless the payload cache admitted the section, in which case the cache
// owns that buffer for good. All layers draw from one warm set instead of
// growing several.
var Shared = NewArena()

// Get returns a buffer of length n (capacity possibly larger). Contents are
// undefined.
func (a *Arena) Get(n int) []byte {
	if v := a.pool.Get(); v != nil {
		b := *(v.(*[]byte))
		switch {
		case cap(b) < n:
			// Too small for this request; drop it rather than growing a
			// pooled buffer nobody may ever need this large again.
		case cap(b)-n > n && cap(b)-n > oversizeSlack:
			// Far too large: leave it for a request that needs it. A small
			// section buffer may end up held by the payload cache for good,
			// and must not pin a large one.
			a.pool.Put(v)
		default:
			return b[:n]
		}
	}
	return make([]byte, n)
}

// oversizeSlack is the spare capacity Get tolerates on any buffer it hands
// out; beyond it, the spare capacity may be at most n.
const oversizeSlack = 64 << 10

// Put releases a buffer back to the arena. Safe for concurrent use with Get.
func (a *Arena) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	a.pool.Put(&b)
}
