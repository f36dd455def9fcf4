// Package backmat implements checkpoint materialization, including the four
// strategies compared in the paper's Figure 5.
//
// Materializing a checkpoint decomposes into three costs:
//
//	snapshot  — deep-copying mutable state (unavoidably on the training thread;
//	            the analogue of fork()'s copy-on-write page duplication)
//	serialize — encoding snapshots into bytes (≈4.3× the cost of I/O, §5.1)
//	write     — committing bytes to the checkpoint store
//
// The strategies differ in which of these block the training thread:
//
//	Baseline (cloudpickle):  snapshot + serialize + write on the caller
//	Queue (IPC-Queue):       snapshot + serialize on the caller; write behind
//	Plasma (IPC-Plasma):     snapshot on the caller, handed off per object;
//	                         serialize + write behind
//	Fork (the paper's):      snapshot on the caller, handed off per batched
//	                         bundle; serialize + write behind
//
// Fork and Plasma block the caller for nearly the same time; Fork's batching
// (one handoff per checkpoint instead of one per object) gives it the small
// edge the paper reports.
//
// Since checkpoint format v2, serialization itself is also parallel:
// bundles encode as one section per environment entry across the ckptfmt
// worker pool (EncodeSections), and format-v2 stores chunk, frame, and
// deduplicate those sections (store.PutSections). Every strategy gets the
// parallel encode — the strategies only decide *where* it runs relative to
// the training thread.
package backmat

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/value"
)

// Strategy selects a materialization implementation.
type Strategy int

// The four strategies of Figure 5. Fork — the paper's design and the
// default-on configuration — is the zero value, so a zero-valued options
// struct gets background materialization.
const (
	Fork Strategy = iota
	Baseline
	Queue
	Plasma
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Queue:
		return "IPC-Queue"
	case Plasma:
		return "IPC-Plasma"
	case Fork:
		return "Fork"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NamedValue pairs an environment variable name with its live value.
type NamedValue struct {
	Name string
	V    value.Value
}

// NamedPayload pairs a variable name with its snapshotted payload.
type NamedPayload struct {
	Name    string
	Payload value.Payload
}

// EncodeBundle serializes a checkpoint bundle: the side-effects of one loop
// execution, as (name, payload) pairs.
func EncodeBundle(items []NamedPayload) []byte {
	w := codec.NewWriter()
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.Name)
		value.EncodePayload(w, it.Payload)
	}
	return w.Bytes()
}

// EncodeSections serializes a checkpoint bundle as one section per entry,
// encoding entries in parallel across the ckptfmt worker pool. Sections are
// the unit the format-v2 store chunks, frames, and deduplicates; wherever a
// strategy runs serialization — inline for Baseline and Queue, behind the
// training thread for Plasma and Fork — it now also runs wide.
func EncodeSections(items []NamedPayload) []store.Section {
	secs := make([]store.Section, len(items))
	ckptfmt.ParallelDo(len(items), func(i int) {
		w := codec.NewWriter()
		value.EncodePayload(w, items[i].Payload)
		secs[i] = store.Section{Name: items[i].Name, Data: w.Bytes()}
	})
	return secs
}

// DecodeSections parses sections back into bundle items, decoding entries in
// parallel; the replay-side counterpart of EncodeSections.
func DecodeSections(secs []store.Section) ([]NamedPayload, error) {
	items := make([]NamedPayload, len(secs))
	errs := make([]error, len(secs))
	ckptfmt.ParallelDo(len(secs), func(i int) {
		p, err := value.DecodeTaggedPayload(codec.NewReader(secs[i].Data))
		if err != nil {
			errs[i] = fmt.Errorf("backmat: decode %q: %w", secs[i].Name, err)
			return
		}
		items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// DefaultPayloadCacheBytes bounds a PayloadCache: generous for the frozen
// backbones it exists to hold, small next to the training state itself.
const DefaultPayloadCacheBytes = 256 << 20

// PayloadCache memoizes decoded section payloads by content identity.
// Replay restores largely identical state epoch after epoch (frozen layers,
// datasets, configuration); since payloads are immutable by contract and
// every Value.Restore copies, one decode per distinct content serves the
// whole run. The cache never evicts — once the byte budget is reached, new
// content simply stops being cached. That keeps Contains answers stable,
// which GetSections relies on when it skips loading content the cache has
// promised to serve (an evicting cache could break that promise between the
// skip decision and the decode).
type PayloadCache struct {
	mu   sync.Mutex
	cap  int64
	size int64
	m    map[ckptfmt.Hash]cachedPayload
	// seen implements two-touch admission: content is cached only on its
	// second appearance, so a stream of never-repeating checkpoints (a
	// fully mutating model) doesn't pin one-shot payloads in memory.
	seen map[ckptfmt.Hash]struct{}

	hits   int64
	misses int64
	admits int64

	mHits   *obs.Counter
	mMisses *obs.Counter
	mAdmits *obs.Counter
}

// PayloadCacheStats is a consistent snapshot of a cache's accounting.
type PayloadCacheStats struct {
	CapBytes  int64 `json:"cap_bytes"`
	SizeBytes int64 `json:"size_bytes"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Admits    int64 `json:"admits"`
}

// Stats returns a snapshot taken under the cache lock, so the counters are
// mutually consistent. Zero-valued for a nil cache.
func (c *PayloadCache) Stats() PayloadCacheStats {
	if c == nil {
		return PayloadCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PayloadCacheStats{
		CapBytes:  c.cap,
		SizeBytes: c.size,
		Entries:   len(c.m),
		Hits:      c.hits,
		Misses:    c.misses,
		Admits:    c.admits,
	}
}

type cachedPayload struct {
	p     value.Payload
	bytes int64
}

// seenLimit caps the admission-tracking set; when exceeded it resets, which
// merely delays admission of genuinely repeating content by one touch.
const seenLimit = 1 << 20

// NewPayloadCache returns a cache bounded to capBytes
// (DefaultPayloadCacheBytes when <= 0).
func NewPayloadCache(capBytes int64) *PayloadCache {
	if capBytes <= 0 {
		capBytes = DefaultPayloadCacheBytes
	}
	return &PayloadCache{
		cap: capBytes, m: map[ckptfmt.Hash]cachedPayload{}, seen: map[ckptfmt.Hash]struct{}{},
		mHits:   obs.C(obs.MReplayPayloadCacheHits),
		mMisses: obs.C(obs.MReplayPayloadCacheMisses),
		mAdmits: obs.C(obs.MReplayPayloadCacheAdmits),
	}
}

// Contains reports whether the cache holds a payload for the identity; it
// is the `have` callback for store.GetSections, letting the store skip
// loading content the cache will serve anyway.
func (c *PayloadCache) Contains(h ckptfmt.Hash) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[h]
	return ok
}

func (c *PayloadCache) get(h ckptfmt.Hash) (value.Payload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[h]
	if ok {
		c.hits++
		c.mHits.Inc()
	} else {
		c.misses++
		c.mMisses.Inc()
	}
	return e.p, ok
}

// put offers a decoded payload to the cache and reports whether it was
// admitted — in which case the cache now holds p, and with it the buffer p's
// wire views alias.
func (c *PayloadCache) put(h ckptfmt.Hash, p value.Payload, bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[h]; ok {
		return false
	}
	if _, ok := c.seen[h]; !ok {
		if len(c.seen) >= seenLimit {
			c.seen = map[ckptfmt.Hash]struct{}{}
		}
		c.seen[h] = struct{}{}
		return false
	}
	if c.size+bytes > c.cap {
		return false
	}
	c.m[h] = cachedPayload{p: p, bytes: bytes}
	c.size += bytes
	c.admits++
	c.mAdmits.Inc()
	return true
}

// DecodeSectionsCached parses sections into bundle items, serving sections
// the cache already holds without decoding (their Data may be nil when the
// store skipped loading them) and caching fresh decodes by content
// identity. A nil cache degrades to DecodeSections.
//
// Ownership: decoded payloads alias secs[i].Data (lazy tensor and state
// views). On return, a section whose Data is still set is the caller's: its
// payload is valid until the caller hands the buffer back to ckptfmt.Shared,
// which it should do once every payload is applied. The call clears Data
// on the other sections. A section the cache already held is served from an
// earlier load's bytes, so its buffer (if the store loaded one anyway) goes
// straight back to the arena; a section the cache admits now is owned by
// the cache from then on and must never be recycled.
func DecodeSectionsCached(c *PayloadCache, secs []store.Section) ([]NamedPayload, error) {
	if c == nil {
		return DecodeSections(secs)
	}
	items := make([]NamedPayload, len(secs))
	errs := make([]error, len(secs))
	ckptfmt.ParallelDo(len(secs), func(i int) {
		var zero ckptfmt.Hash
		if secs[i].Hash != zero {
			if p, ok := c.get(secs[i].Hash); ok {
				items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
				if secs[i].Data != nil {
					ckptfmt.Shared.Put(secs[i].Data)
					secs[i].Data = nil
				}
				return
			}
		}
		if secs[i].Data == nil && secs[i].RawLen > 0 {
			errs[i] = fmt.Errorf("backmat: section %q skipped by store but absent from cache", secs[i].Name)
			return
		}
		p, err := value.DecodeTaggedPayload(codec.NewReader(secs[i].Data))
		if err != nil {
			errs[i] = fmt.Errorf("backmat: decode %q: %w", secs[i].Name, err)
			return
		}
		items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
		if secs[i].Hash != zero && c.put(secs[i].Hash, p, int64(len(secs[i].Data))) {
			secs[i].Data = nil
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// BundleBytes reassembles sections into the monolithic bundle encoding —
// byte-identical to EncodeBundle of the same items. It is the bridge from
// the section-based encode path onto a legacy format-v1 store.
func BundleBytes(secs []store.Section) []byte {
	w := codec.NewWriter()
	w.Uvarint(uint64(len(secs)))
	for _, sec := range secs {
		w.String(sec.Name)
		w.RawAppend(sec.Data)
	}
	return w.Bytes()
}

// DecodeBundle parses a checkpoint bundle.
func DecodeBundle(b []byte) ([]NamedPayload, error) {
	r := codec.NewReader(b)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	items := make([]NamedPayload, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		p, err := value.DecodeTaggedPayload(r)
		if err != nil {
			return nil, fmt.Errorf("backmat: decode %q: %w", name, err)
		}
		items = append(items, NamedPayload{Name: name, Payload: p})
	}
	return items, nil
}

// Stats aggregates materialization timings.
type Stats struct {
	Checkpoints    int
	CallerNs       int64 // training-thread blocked time across all checkpoints
	SnapshotNs     int64 // subset of CallerNs spent deep-copying state
	SerializeNs    int64 // encode time, wherever it ran
	WriteNs        int64 // store write time, wherever it ran
	BackgroundNs   int64 // work performed off the training thread
	BytesWritten   int64 // logical checkpoint payload bytes committed
	StoredBytes    int64 // bytes physically added to the store (post-dedup)
	MaxLiveWorkers int   // high-water mark of concurrent background tasks
}

type task struct {
	key      store.Key
	items    []NamedPayload
	preSecs  []store.Section // non-nil when serialization already happened (Queue)
	snapNs   int64
	computNs int64
}

// Materializer writes checkpoint bundles to a store under a chosen strategy.
// Materialize may be called only from the single training thread; background
// work is drained by Drain or Close.
type Materializer struct {
	strategy Strategy
	st       *store.Store

	mu       sync.Mutex
	stats    Stats
	firstEr  error
	live     int
	observer func(*store.Meta)

	tasks chan task
	wg    sync.WaitGroup

	// plasma assembles per-object handoffs back into bundles keyed by
	// checkpoint.
	plasmaMu      sync.Mutex
	plasmaPending map[store.Key]*plasmaBundle
}

type plasmaBundle struct {
	items    []NamedPayload
	expect   int
	snapNs   int64
	computNs int64
}

// inFlight bounds queued background work; the paper reports "never more than
// two live children", which this backpressure reproduces.
const inFlight = 2

// New constructs a materializer over st.
func New(st *store.Store, strategy Strategy) *Materializer {
	m := &Materializer{
		strategy:      strategy,
		st:            st,
		tasks:         make(chan task, inFlight),
		plasmaPending: map[store.Key]*plasmaBundle{},
	}
	m.wg.Add(1)
	go m.worker()
	return m
}

// Strategy returns the configured strategy.
func (m *Materializer) Strategy() Strategy { return m.strategy }

// SetObserver registers a callback invoked (from the background worker)
// after each checkpoint commits. Adaptive checkpointing uses this to refine
// its materialization-cost estimates from observed timings.
func (m *Materializer) SetObserver(f func(*store.Meta)) {
	m.mu.Lock()
	m.observer = f
	m.mu.Unlock()
}

func (m *Materializer) worker() {
	defer m.wg.Done()
	for t := range m.tasks {
		m.mu.Lock()
		m.live++
		if m.live > m.stats.MaxLiveWorkers {
			m.stats.MaxLiveWorkers = m.live
		}
		m.mu.Unlock()

		begin := time.Now()
		m.finish(t)
		bg := time.Since(begin).Nanoseconds()

		m.mu.Lock()
		m.live--
		m.stats.BackgroundNs += bg
		m.mu.Unlock()
	}
}

// finish serializes (if needed) and writes one checkpoint.
func (m *Materializer) finish(t task) {
	secs := t.preSecs
	var serNs int64
	if secs == nil {
		s0 := time.Now()
		secs = EncodeSections(t.items)
		serNs = time.Since(s0).Nanoseconds()
	}
	w0 := time.Now()
	meta, err := m.put(t.key, secs, t.snapNs, serNs, t.computNs)
	writeNs := time.Since(w0).Nanoseconds()

	m.mu.Lock()
	if err != nil && m.firstEr == nil {
		m.firstEr = err
	}
	m.stats.SerializeNs += serNs
	m.stats.WriteNs += writeNs
	if err == nil {
		m.stats.BytesWritten += meta.Size
		m.stats.StoredBytes += meta.StoredBytes
	}
	observe := m.observer
	m.mu.Unlock()
	if err == nil && observe != nil {
		observe(meta)
	}
}

// put commits sections through the store's native write path: chunked,
// deduplicated frames on a format-v2 store, a reassembled monolithic bundle
// on a legacy v1 store.
func (m *Materializer) put(key store.Key, secs []store.Section, snapNs, serNs, computNs int64) (*store.Meta, error) {
	if m.st.Format() == store.FormatV2 {
		return m.st.PutSections(key, secs, snapNs, serNs, computNs)
	}
	return m.st.Put(key, BundleBytes(secs), snapNs, serNs, computNs)
}

// Materialize checkpoints the given values under key. computNs is the
// observed computation time of the loop execution being memoized; it is
// stored alongside for adaptive checkpointing and the benchmark harness.
// The returned duration is the time the caller (training thread) was
// blocked.
func (m *Materializer) Materialize(key store.Key, vals []NamedValue, computNs int64) time.Duration {
	begin := time.Now()

	// Snapshot on the caller: every strategy pays this (fork pays it as
	// copy-on-write page duplication; pickle-based strategies pay it as part
	// of serialization — accounted identically here for comparability).
	s0 := time.Now()
	items := make([]NamedPayload, len(vals))
	for i, nv := range vals {
		items[i] = NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()}
	}
	snapNs := time.Since(s0).Nanoseconds()

	switch m.strategy {
	case Baseline:
		// Serialize and write inline.
		e0 := time.Now()
		secs := EncodeSections(items)
		serNs := time.Since(e0).Nanoseconds()
		w0 := time.Now()
		meta, err := m.put(key, secs, snapNs, serNs, computNs)
		writeNs := time.Since(w0).Nanoseconds()
		m.mu.Lock()
		if err != nil && m.firstEr == nil {
			m.firstEr = err
		}
		m.stats.SerializeNs += serNs
		m.stats.WriteNs += writeNs
		if err == nil {
			m.stats.BytesWritten += meta.Size
			m.stats.StoredBytes += meta.StoredBytes
		}
		observe := m.observer
		m.mu.Unlock()
		if err == nil && observe != nil {
			observe(meta)
		}

	case Queue:
		// Serialize inline (the queue pickles on the sending process), write
		// in the background.
		e0 := time.Now()
		secs := EncodeSections(items)
		serNs := time.Since(e0).Nanoseconds()
		m.mu.Lock()
		m.stats.SerializeNs += serNs
		m.mu.Unlock()
		m.tasks <- task{key: key, preSecs: secs, snapNs: snapNs, computNs: computNs}

	case Plasma:
		// Hand off object by object: each put into the "object store" is a
		// separate synchronization, like plasma_client.put per array.
		m.plasmaMu.Lock()
		m.plasmaPending[key] = &plasmaBundle{expect: len(items), snapNs: snapNs, computNs: computNs}
		m.plasmaMu.Unlock()
		for _, it := range items {
			m.plasmaPut(key, it)
		}

	case Fork:
		// One handoff for the whole batched bundle; serialization and write
		// happen in the child.
		m.tasks <- task{key: key, items: items, snapNs: snapNs, computNs: computNs}
	}

	caller := time.Since(begin)
	m.mu.Lock()
	m.stats.Checkpoints++
	m.stats.CallerNs += caller.Nanoseconds()
	m.stats.SnapshotNs += snapNs
	m.mu.Unlock()
	return caller
}

func (m *Materializer) plasmaPut(key store.Key, it NamedPayload) {
	m.plasmaMu.Lock()
	pb := m.plasmaPending[key]
	pb.items = append(pb.items, it)
	done := len(pb.items) == pb.expect
	if done {
		delete(m.plasmaPending, key)
	}
	m.plasmaMu.Unlock()
	if done {
		m.tasks <- task{key: key, items: pb.items, snapNs: pb.snapNs, computNs: pb.computNs}
	}
}

// Drain blocks until all queued background work has been committed, and
// returns the first background error, if any.
func (m *Materializer) Drain() error {
	// Close-and-reopen the worker to establish a barrier.
	close(m.tasks)
	m.wg.Wait()
	m.tasks = make(chan task, inFlight)
	m.wg.Add(1)
	go m.worker()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstEr
}

// Close drains background work and shuts the materializer down.
func (m *Materializer) Close() error {
	close(m.tasks)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstEr
}

// Stats returns a copy of the accumulated statistics.
func (m *Materializer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ErrClosed is returned by operations on a closed materializer.
var ErrClosed = errors.New("backmat: materializer closed")
