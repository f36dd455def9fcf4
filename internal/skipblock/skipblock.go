// Package skipblock implements the SkipBlock language construct (paper
// §4.2): parameterized branching, side-effect memoization, and side-effect
// restoration for loops.
//
// A SkipBlock always applies the side-effects of its enclosed loop to the
// program state, in one of two ways: by executing the loop, or by skipping
// it and loading the memoized side-effects from its Loop End Checkpoint.
// Which branch runs is parameterized by the execution state Flor is in:
//
//	ModeRecord      execute, then (subject to the adaptive-checkpointing
//	                Joint Invariant) materialize the Loop End Checkpoint
//	ModeReplayInit  skip: restore side-effects from the checkpoint
//	                (re-execute only if the checkpoint was never
//	                materialized — the sparse-checkpoint fallback)
//	ModeReplayExec  skip unless the loop is probed by a hindsight log
//	                statement, in which case re-execute to produce the logs
package skipblock

import (
	"fmt"
	"time"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/analyze"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
)

// Mode is the execution state a SkipBlock runtime is in.
type Mode int

// The paper's SkipBlock parameterizations: record execution, replay
// initialization, replay execution.
const (
	ModeRecord Mode = iota
	ModeReplayInit
	ModeReplayExec
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeRecord:
		return "record"
	case ModeReplayInit:
		return "replay-init"
	case ModeReplayExec:
		return "replay-exec"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Stats counts what a SkipBlock did over a run.
type Stats struct {
	Executed      int // loop ran logically
	Restored      int // loop skipped, side-effects loaded from checkpoint
	Materialized  int // checkpoints handed to the materializer
	ComputNs      int64
	RestoreNs     int64
	RestoredBytes int64 // logical payload bytes loaded by restores
}

// Block is the runtime state of one SkipBlock-enclosed loop.
type Block struct {
	Loop      *script.Loop
	Changeset []string // static changeset from analysis (pre-augmentation)
	Probed    bool     // set at replay time from the source diff

	execIndex int // which execution of this loop is next
	stats     Stats

	rt *Runtime
}

// ExecIndex returns the next execution number for this block's loop.
func (b *Block) ExecIndex() int { return b.execIndex }

// SetExecIndex positions the block at execution n; the replay generator uses
// this to jump workers to their segment start.
func (b *Block) SetExecIndex(n int) { b.execIndex = n }

// Stats returns a copy of the block's counters.
func (b *Block) Stats() Stats { return b.stats }

// Runtime manages all SkipBlocks of one program run and provides the loop
// hook that the script executor calls for every nested loop.
type Runtime struct {
	mode    Mode
	blocks  map[string]*Block
	tracker *adapt.Tracker
	mat     *backmat.Materializer
	st      *store.Store
	// cache memoizes decoded section payloads across restores: replay loads
	// largely identical state every epoch, so repeated content (frozen
	// layers, datasets) decodes once per run instead of once per restore.
	cache *backmat.PayloadCache
	// tr/worker/fetch: optional query-trace plumbing. When a trace is set,
	// every restore emits a "restore" span attributing its bytes to the
	// store fetch tier that served them; fetch accumulates the worker's
	// per-tier totals for the query-cost summary.
	tr     *obs.Trace
	worker int
	fetch  *store.FetchStats
}

// NewRuntime instruments a program's nested loops: every loop (other than
// the main loop) whose side-effect analysis is memoizable gets a SkipBlock.
// Refused loops are left intact, to be fully re-executed (paper §5.2.1).
func NewRuntime(p *script.Program, tracker *adapt.Tracker, mat *backmat.Materializer, st *store.Store) *Runtime {
	rt := &Runtime{
		mode:    ModeRecord,
		blocks:  map[string]*Block{},
		tracker: tracker,
		mat:     mat,
		st:      st,
		cache:   backmat.NewPayloadCache(0),
	}
	for _, l := range p.Loops() {
		if p.Main != nil && l.ID == p.Main.ID {
			continue // the main loop is handled by the generator, not a SkipBlock
		}
		a := analyze.AnalyzeLoop(p, l)
		if !a.Memoizable {
			continue
		}
		rt.blocks[l.ID] = &Block{Loop: l, Changeset: a.Changeset, rt: rt}
	}
	return rt
}

// SetMode switches every SkipBlock's parameterized branch (paper Figure 9,
// lines 3-4 and 7: the generator updates SkipBlock state between the init
// and work segments).
func (r *Runtime) SetMode(m Mode) { r.mode = m }

// SetCache replaces the runtime's private payload cache with a shared one.
// A serving daemon shares one cache per run store across every query's
// workers — and, for runs attached to a shared chunk pool, one cache per
// *pool*, so content decoded for one sibling run's replay (the family's
// frozen backbone) is served from memory to every other sibling's. The
// cache key is content identity, which is pool-wide by construction.
// (PayloadCache is safe for concurrent use, and cached payloads are
// immutable by contract.) Call before execution starts; a nil cache is
// ignored.
func (r *Runtime) SetCache(c *backmat.PayloadCache) {
	if c != nil {
		r.cache = c
	}
}

// SetTrace attaches a query trace to the runtime: subsequent restores emit
// tier-attributed "restore" spans under the given worker id, and per-tier
// fetch totals accumulate for FetchSnapshot. A nil trace disables both (the
// default — record-mode runtimes stay unobserved).
func (r *Runtime) SetTrace(tr *obs.Trace, worker int) {
	r.tr, r.worker = tr, worker
	if tr != nil && r.fetch == nil {
		r.fetch = &store.FetchStats{}
	}
}

// FetchSnapshot returns the runtime's accumulated per-tier fetch totals
// (zero when no trace was attached).
func (r *Runtime) FetchSnapshot() store.FetchSnapshot { return r.fetch.Snapshot() }

// Mode returns the current mode.
func (r *Runtime) Mode() Mode { return r.mode }

// Block returns the SkipBlock for a loop ID, if the loop was instrumented.
func (r *Runtime) Block(id string) (*Block, bool) {
	b, ok := r.blocks[id]
	return b, ok
}

// Blocks returns all instrumented loop IDs.
func (r *Runtime) Blocks() []string {
	out := make([]string, 0, len(r.blocks))
	for id := range r.blocks {
		out = append(out, id)
	}
	return out
}

// SetProbes marks the probed loops from a hindsight source diff.
func (r *Runtime) SetProbes(probes map[string]bool) {
	for id, b := range r.blocks {
		b.Probed = probes[id]
	}
}

// Hook is the script.Ctx.LoopHook adapter.
func (r *Runtime) Hook(ctx *script.Ctx, l *script.Loop) (bool, error) {
	b, ok := r.blocks[l.ID]
	if !ok {
		return false, nil // uninstrumented loop: execute logically
	}
	return true, b.Apply(ctx)
}

// Apply applies the loop's side-effects to the program state according to
// the current mode (the SkipBlock's parameterized branching).
func (b *Block) Apply(ctx *script.Ctx) error {
	switch b.rt.mode {
	case ModeRecord:
		return b.recordExec(ctx)
	case ModeReplayInit:
		return b.replayInit(ctx)
	case ModeReplayExec:
		return b.replayExec(ctx)
	default:
		return fmt.Errorf("skipblock: unknown mode %v", b.rt.mode)
	}
}

// recordExec executes the loop, then decides whether to memoize it.
func (b *Block) recordExec(ctx *script.Ctx) error {
	exec := b.execIndex
	b.execIndex++

	t0 := time.Now()
	if err := b.execute(ctx); err != nil {
		return err
	}
	computNs := time.Since(t0).Nanoseconds()
	b.stats.ComputNs += computNs

	// The Joint Invariant test happens after execution, before
	// materialization (paper §5.3.3).
	b.rt.tracker.NoteExecution(b.Loop.ID, computNs)
	vals, size, err := b.resolveChangeset(ctx)
	if err != nil {
		return err
	}
	if !b.rt.tracker.ShouldMaterialize(b.Loop.ID, size) {
		return nil
	}
	b.rt.mat.Materialize(store.Key{LoopID: b.Loop.ID, Exec: exec}, vals, computNs)
	b.stats.Materialized++
	return nil
}

// replayInit skips the loop by restoring its Loop End Checkpoint; if no
// checkpoint was materialized for this execution (sparse/periodic
// checkpointing), the loop is re-executed, which is always correct.
func (b *Block) replayInit(ctx *script.Ctx) error {
	exec := b.execIndex
	key := store.Key{LoopID: b.Loop.ID, Exec: exec}
	if !b.rt.st.Has(key) {
		b.execIndex++
		t0 := time.Now()
		if err := b.execute(ctx); err != nil {
			return err
		}
		b.stats.ComputNs += time.Since(t0).Nanoseconds()
		return nil
	}
	b.execIndex++
	return b.restore(ctx, key)
}

// replayExec re-executes the loop if it is probed (the hindsight log
// statements inside it must run); otherwise it skips via the checkpoint,
// falling back to execution when the checkpoint is missing.
func (b *Block) replayExec(ctx *script.Ctx) error {
	exec := b.execIndex
	key := store.Key{LoopID: b.Loop.ID, Exec: exec}
	if b.Probed || !b.rt.st.Has(key) {
		b.execIndex++
		t0 := time.Now()
		if err := b.execute(ctx); err != nil {
			return err
		}
		b.stats.ComputNs += time.Since(t0).Nanoseconds()
		return nil
	}
	b.execIndex++
	return b.restore(ctx, key)
}

// execute runs the loop logically (and advances nested SkipBlock execution
// counters implicitly, since their hooks fire).
func (b *Block) execute(ctx *script.Ctx) error {
	b.stats.Executed++
	return script.ExecLoop(ctx, b.Loop)
}

// restore loads the Loop End Checkpoint and applies its side-effects.
// Format-v2 checkpoints restore through the parallel path: chunk frames are
// read and decoded across the worker pool (store.GetSections), then bundle
// entries decode in parallel too (backmat.DecodeSectionsCached), leaving
// tensors as views into the section buffers. Applying copies each view once
// into its live value, after which every section buffer the payload cache
// did not keep goes back to the restore arena. Format-v1 and opaque
// checkpoints fall back to the monolithic decode.
func (b *Block) restore(ctx *script.Ctx, key store.Key) error {
	t0 := time.Now()
	spanStart := b.rt.tr.Now()
	fetchBefore := b.rt.fetch.Snapshot()
	var items []backmat.NamedPayload
	var restoredBytes int64
	secs, ok, err := b.rt.st.GetSectionsObserved(key, b.rt.cache.Contains, b.rt.fetch)
	if err != nil {
		return fmt.Errorf("skipblock: %s: %w", key, err)
	}
	if ok {
		for _, sec := range secs {
			restoredBytes += int64(sec.RawLen)
		}
		if items, err = backmat.DecodeSectionsCached(b.rt.cache, secs); err != nil {
			return fmt.Errorf("skipblock: %s: %w", key, err)
		}
	} else {
		raw, err := b.rt.st.Get(key)
		if err != nil {
			return fmt.Errorf("skipblock: %s: %w", key, err)
		}
		restoredBytes = int64(len(raw))
		if items, err = backmat.DecodeBundle(raw); err != nil {
			return fmt.Errorf("skipblock: %s: %w", key, err)
		}
	}
	for _, it := range items {
		v, ok := ctx.Env.Get(it.Name)
		if !ok {
			return fmt.Errorf("skipblock: %s: checkpointed variable %q missing from environment (setup must define it)", key, it.Name)
		}
		if err := v.Restore(it.Payload); err != nil {
			return fmt.Errorf("skipblock: %s: restore %q: %w", key, it.Name, err)
		}
	}
	// Every Value.Restore copies, so nothing aliases the uncached buffers
	// any more.
	for _, sec := range secs {
		if sec.Data != nil {
			ckptfmt.Shared.Put(sec.Data)
		}
	}
	restoreNs := time.Since(t0).Nanoseconds()
	b.stats.Restored++
	b.stats.RestoreNs += restoreNs
	b.stats.RestoredBytes += restoredBytes
	if b.rt.tr != nil {
		d := b.rt.fetch.Snapshot().Sub(fetchBefore)
		b.rt.tr.Add(obs.Span{Name: "restore", Worker: b.rt.worker, StartNs: spanStart, DurNs: restoreNs,
			Attrs: map[string]int64{
				"exec":           int64(key.Exec),
				"restored_bytes": restoredBytes,
				"mmap_bytes":     d.MmapBytes, "mmap_frames": d.MmapFrames,
				"scatter_bytes": d.ScatterBytes, "scatter_frames": d.ScatterFrames,
				"ranged_bytes": d.RangedBytes, "ranged_frames": d.RangedFrames,
				"cache_bytes": d.CacheBytes, "cache_frames": d.CacheFrames,
				"remote_bytes": d.RemoteBytes, "remote_frames": d.RemoteFrames,
				"cache_tier_bytes": d.CacheTierBytes, "cache_tier_frames": d.CacheTierFrames,
				"singleflight_bytes": d.SingleflightBytes, "singleflight_frames": d.SingleflightFrames,
			}})
	}
	if meta, ok := b.rt.st.Lookup(key); ok {
		b.rt.tracker.NoteRestoreLoop(b.Loop.ID, restoreNs, meta.MaterNs)
	}
	// Skipping the loop means nested SkipBlocks never saw their executions;
	// keep their counters aligned.
	b.rt.advanceNested(b.Loop, 1)
	return nil
}

// resolveChangeset augments the static changeset at runtime (optimizer →
// model, scheduler → optimizer; paper §5.2.1) and resolves it against the
// environment.
func (b *Block) resolveChangeset(ctx *script.Ctx) ([]backmat.NamedValue, int, error) {
	names := analyze.Augment(b.Changeset, ctx.Env)
	vals := make([]backmat.NamedValue, 0, len(names))
	size := 0
	for _, n := range names {
		v, ok := ctx.Env.Get(n)
		if !ok {
			return nil, 0, fmt.Errorf("skipblock: %s: changeset variable %q not defined at loop end", b.Loop.ID, n)
		}
		vals = append(vals, backmat.NamedValue{Name: n, V: v})
		size += v.SizeBytes()
	}
	return vals, size, nil
}

// advanceNested advances the execution counters of SkipBlocks nested inside
// loop l by the number of executions they would have performed during
// `times` executions of l.
func (r *Runtime) advanceNested(l *script.Loop, times int) {
	var walk func(body []script.Stmt, mult int)
	walk = func(body []script.Stmt, mult int) {
		for i := range body {
			if nested := body[i].Loop; nested != nil {
				if nb, ok := r.blocks[nested.ID]; ok {
					nb.execIndex += times * mult
				}
				walk(nested.Body, mult*nested.Iters)
			}
		}
	}
	walk(l.Body, l.Iters)
}

// ExecsPerMainIteration returns how many times the loop with the given ID
// executes during one iteration of the main loop; the replay generator uses
// it to position workers. It returns 0 when the loop is not found under the
// main loop.
func ExecsPerMainIteration(p *script.Program, loopID string) int {
	if p.Main == nil {
		return 0
	}
	var walk func(body []script.Stmt, mult int) int
	walk = func(body []script.Stmt, mult int) int {
		for i := range body {
			if nested := body[i].Loop; nested != nil {
				if nested.ID == loopID {
					return mult
				}
				if got := walk(nested.Body, mult*nested.Iters); got > 0 {
					return got
				}
			}
		}
		return 0
	}
	return walk(p.Main.Body, 1)
}
