package replay_test

import (
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
)

// TestReplayThroughSharedPool replays through a one-slot pool (workers fully
// serialized) and a shared payload cache, and checks the merged logs stay
// byte-identical to an ungated replay across all three schedulers.
func TestReplayThroughSharedPool(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	probed := addOuterProbe(factory)

	want, err := replay.Replay(rec.Recording, probed, replay.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, schedPolicy := range []replay.Scheduler{replay.SchedStatic, replay.SchedBalanced, replay.SchedStealing} {
		pool := sched.NewPool(1)
		cache := backmat.NewPayloadCache(0)
		got, err := replay.Replay(rec.Recording, probed, replay.Options{
			Workers:   4,
			Scheduler: schedPolicy,
			Init:      replay.Weak,
			Slots:     pool,
			Cache:     cache,
		})
		if err != nil {
			t.Fatalf("%v: %v", schedPolicy, err)
		}
		if len(got.Anomalies) != 0 {
			t.Fatalf("%v: anomalies: %v", schedPolicy, got.Anomalies)
		}
		if len(got.Logs) != len(want.Logs) {
			t.Fatalf("%v: %d log lines, want %d", schedPolicy, len(got.Logs), len(want.Logs))
		}
		for i := range got.Logs {
			if got.Logs[i] != want.Logs[i] {
				t.Fatalf("%v: log %d = %q, want %q", schedPolicy, i, got.Logs[i], want.Logs[i])
			}
		}
		if got.CFactor <= 0 {
			t.Fatalf("%v: CFactor = %v, want > 0", schedPolicy, got.CFactor)
		}
		st := pool.Stats()
		if st.InUse != 0 {
			t.Fatalf("%v: pool leaked slots: %+v", schedPolicy, st)
		}
		// One acquire per worker that ran: the balanced partition returns
		// at most Workers segments, fewer when one epoch's recorded wall
		// time dominates, so the worker count is not always 4.
		if len(got.Workers) == 0 || st.Acquires < int64(len(got.Workers)) {
			t.Fatalf("%v: pool acquires = %d, want >= %d (one per worker that ran)", schedPolicy, st.Acquires, len(got.Workers))
		}
	}
}

// TestReplaySampleSharedCacheHits runs the same sample twice against one
// shared cache and checks the second pass restores entirely from memory.
func TestReplaySampleSharedCacheHits(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	probed := addOuterProbe(factory)
	cache := backmat.NewPayloadCache(0)
	pool := sched.NewPool(2)

	opts := replay.SampleOptions{Cache: cache, Slots: pool}
	first, err := replay.ReplaySampleWith(rec.Recording, probed, []int{2, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := replay.ReplaySampleWith(rec.Recording, probed, []int{2, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Logs) == 0 || len(first.Logs) != len(second.Logs) {
		t.Fatalf("log lengths: first %d, second %d", len(first.Logs), len(second.Logs))
	}
	for i := range first.Logs {
		if first.Logs[i] != second.Logs[i] {
			t.Fatalf("log %d diverged: %q vs %q", i, first.Logs[i], second.Logs[i])
		}
	}
	if st := pool.Stats(); st.InUse != 0 || st.Acquires != 2 {
		t.Fatalf("pool stats = %+v", st)
	}
}
