package serve

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
)

// cacheEntry is one hot store: the recording opened read-only (manifest and
// dedup index replayed once) plus the cross-query decoded-payload cache.
// Entries stay valid after eviction — in-flight queries holding one simply
// finish on it; eviction only stops new queries from finding it hot.
//
// For runs attached to a shared chunk pool, cache is the *pool's* payload
// cache, shared by every sibling run of the project: content is addressed
// by hash, so a backbone decoded for one run's replay serves its whole
// fine-tuning family.
type cacheEntry struct {
	runID    string
	poolRoot string // "" for private-pack runs
	rec      *replay.Recording
	cache    *backmat.PayloadCache

	openedAt  time.Time // when this entry entered the LRU
	lastTouch time.Time // last hit (guarded by storeCache.mu)
}

// storeCache is an LRU of open stores keyed by run ID, plus the per-pool
// payload caches that outlive individual entries.
type storeCache struct {
	mu         sync.Mutex
	cap        int
	cacheBytes int64
	entries    map[string]*list.Element // value: *cacheEntry
	lru        *list.List               // front = most recent
	onEvict    func(runID string)
	// poolCaches keys shared payload caches by resolved pool root. Pool
	// caches are not evicted with their runs: the pool outlives any one
	// run's LRU residency, and its decoded content stays valid (content-
	// addressed, immutable by contract).
	poolCaches map[string]*backmat.PayloadCache
	// opening holds, per run whose store is being opened, a channel closed
	// when that open finishes: concurrent cold queries of one run share a
	// single open instead of each replaying the manifest.
	opening map[string]chan struct{}

	hits      int64
	misses    int64
	evictions int64

	mEvictions *obs.Counter
	mOpen      *obs.Gauge
}

func newStoreCache(capacity int, cacheBytes int64, onEvict func(string)) *storeCache {
	return &storeCache{
		cap:        capacity,
		cacheBytes: cacheBytes,
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		onEvict:    onEvict,
		poolCaches: map[string]*backmat.PayloadCache{},
		opening:    map[string]chan struct{}{},
		mEvictions: obs.C(obs.MServeStoreEvictions),
		mOpen:      obs.G(obs.MServeStoreOpen),
	}
}

// get returns the entry for runID, opening the store via load on a miss
// (the caller chooses the open path: pinned local roots, or the remote
// object backend) and evicting the least recently used entry beyond
// capacity. poolRoot selects the shared payload cache ("" = private). A
// query arriving while the run's store is being opened waits for that open
// and counts as a hit if it succeeded.
func (c *storeCache) get(runID, poolRoot string, load func() (*replay.Recording, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[runID]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			ent := el.Value.(*cacheEntry)
			ent.lastTouch = time.Now()
			c.mu.Unlock()
			return ent, true, nil
		}
		done, ok := c.opening[runID]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-done
		c.mu.Lock()
	}
	c.misses++
	done := make(chan struct{})
	c.opening[runID] = done
	c.mu.Unlock()
	// However this open ends — even by a panic in load, which the HTTP
	// server recovers from — release the queries waiting on it: they find
	// the entry, or retry the open themselves.
	defer func() {
		c.mu.Lock()
		delete(c.opening, runID)
		c.mu.Unlock()
		close(done)
	}()

	// Load outside the lock: opening a cold store replays its manifest,
	// which must not block hits on other runs.
	rec, err := load()
	if err != nil {
		return nil, false, err
	}
	now := time.Now()
	ent := &cacheEntry{
		runID: runID, poolRoot: poolRoot, rec: rec,
		cache: c.payloadCache(poolRoot), openedAt: now, lastTouch: now,
	}

	c.mu.Lock()
	var evicted []string
	c.entries[runID] = c.lru.PushFront(ent)
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		old := last.Value.(*cacheEntry)
		c.lru.Remove(last)
		delete(c.entries, old.runID)
		c.evictions++
		c.mEvictions.Inc()
		evicted = append(evicted, old.runID)
	}
	c.mOpen.Set(int64(c.lru.Len()))
	hook := c.onEvict
	c.mu.Unlock()
	if hook != nil {
		for _, id := range evicted {
			hook(id)
		}
	}
	return ent, false, nil
}

// payloadCache returns the decoded-payload cache for a store: per-run for
// private-pack stores, shared pool-wide for pooled ones.
func (c *storeCache) payloadCache(poolRoot string) *backmat.PayloadCache {
	if poolRoot == "" {
		return backmat.NewPayloadCache(c.cacheBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pc, ok := c.poolCaches[poolRoot]; ok {
		return pc
	}
	pc := backmat.NewPayloadCache(c.cacheBytes)
	c.poolCaches[poolRoot] = pc
	return pc
}

// drop removes runID's entry immediately, firing the eviction hook like LRU
// eviction does. The stale-store refresh path uses it: a cached read-only
// store that resolved chunk locations before a GC retired — and, past the
// grace period, deleted — their pack generation can only recover by
// reopening, so the server drops the entry and lets the next open resolve
// the surviving generation. In-flight queries holding the old entry finish
// on it like they do after an ordinary eviction.
func (c *storeCache) drop(runID string) {
	c.mu.Lock()
	el, ok := c.entries[runID]
	if ok {
		c.lru.Remove(el)
		delete(c.entries, runID)
		c.evictions++
		c.mEvictions.Inc()
		c.mOpen.Set(int64(c.lru.Len()))
	}
	hook := c.onEvict
	c.mu.Unlock()
	if ok && hook != nil {
		hook(runID)
	}
}

// clear drops every entry (graceful shutdown: stop handing out stores),
// firing the eviction hook for each like normal LRU eviction does —
// embedders track open-store resources through it.
func (c *storeCache) clear() {
	c.mu.Lock()
	var evicted []string
	for id := range c.entries {
		evicted = append(evicted, id)
	}
	c.entries = map[string]*list.Element{}
	c.lru = list.New()
	c.poolCaches = map[string]*backmat.PayloadCache{}
	c.evictions += int64(len(evicted))
	c.mEvictions.Add(int64(len(evicted)))
	c.mOpen.Set(0)
	hook := c.onEvict
	c.mu.Unlock()
	if hook != nil {
		sort.Strings(evicted)
		for _, id := range evicted {
			hook(id)
		}
	}
}

// contains reports whether runID is currently cached (no LRU touch).
func (c *storeCache) contains(runID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[runID]
	return ok
}

// StoreResidency describes one resident store's LRU tenure.
type StoreResidency struct {
	RunID string `json:"run_id"`
	// AgeSeconds is how long the store has been resident since it was
	// opened into the LRU.
	AgeSeconds float64 `json:"age_seconds"`
	// IdleSeconds is how long since the last query touched it.
	IdleSeconds float64 `json:"idle_seconds"`
}

// CacheStats is the open-store LRU accounting.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Open      int   `json:"open"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Residency lists resident stores most-recently-used first, with their
	// time in cache and idle time.
	Residency []StoreResidency `json:"residency,omitempty"`
}

func (c *storeCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := CacheStats{
		Capacity:  c.cap,
		Open:      c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		st.Residency = append(st.Residency, StoreResidency{
			RunID:       ent.runID,
			AgeSeconds:  now.Sub(ent.openedAt).Seconds(),
			IdleSeconds: now.Sub(ent.lastTouch).Seconds(),
		})
	}
	return st
}

// payloadCacheStats snapshots every live decoded-payload cache: shared pool
// caches keyed by their pool root, private per-run caches keyed by run ID.
// Each snapshot is internally consistent (taken under the cache's own lock).
func (c *storeCache) payloadCacheStats() map[string]backmat.PayloadCacheStats {
	c.mu.Lock()
	pools := make(map[string]*backmat.PayloadCache, len(c.poolCaches))
	for root, pc := range c.poolCaches {
		pools[root] = pc
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.poolRoot == "" {
			pools[ent.runID] = ent.cache
		}
	}
	c.mu.Unlock()
	if len(pools) == 0 {
		return nil
	}
	out := make(map[string]backmat.PayloadCacheStats, len(pools))
	for key, pc := range pools {
		out[key] = pc.Stats()
	}
	return out
}
