package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/replay"
)

// TestStoreCacheSharesConcurrentOpens starts many cold queries of one run
// at once: exactly one of them opens the store and the rest find its entry,
// whatever the interleaving. A failed open releases its waiters to retry.
func TestStoreCacheSharesConcurrentOpens(t *testing.T) {
	c := newStoreCache(4, 1<<20, nil)
	var loads atomic.Int64
	release := make(chan struct{})
	load := func() (*replay.Recording, error) {
		loads.Add(1)
		<-release
		return &replay.Recording{}, nil
	}
	const queries = 8
	var wg sync.WaitGroup
	ents := make([]*cacheEntry, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ents[i], _, errs[i] = c.get("run", "", load)
		}(i)
	}
	close(release)
	wg.Wait()
	for i := range ents {
		if errs[i] != nil || ents[i] != ents[0] {
			t.Fatalf("query %d: err = %v, shares entry = %v", i, errs[i], ents[i] == ents[0])
		}
	}
	st := c.stats()
	if loads.Load() != 1 || st.Misses != 1 || st.Hits != queries-1 {
		t.Fatalf("loads = %d, misses = %d, hits = %d; want 1, 1, %d", loads.Load(), st.Misses, st.Hits, queries-1)
	}

	failing := errors.New("open failed")
	if _, _, err := c.get("bad", "", func() (*replay.Recording, error) { return nil, failing }); !errors.Is(err, failing) {
		t.Fatalf("failed open: err = %v", err)
	}
	if _, hit, err := c.get("bad", "", load); err != nil || hit {
		t.Fatalf("open after a failed one: hit = %v, err = %v; want a fresh open", hit, err)
	}
}
