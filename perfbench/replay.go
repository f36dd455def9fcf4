package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/workloads"
)

// replayWorkers is the hindsight parallelism G of every replay query: the
// host's two cores.
const replayWorkers = 2

// cifrInnerEvery places one inner-probe replay in every block of this many
// replay-cifr queries (its position in the block comes from the seed): an
// inner replay re-executes training and lasts about thirty outer ones, so
// a block spends about as long on its inner replay as on its outer ones.
const cifrInnerEvery = 21

// open calls core.LoadRecording inside a span.
func (b *bench) open(tr *tracer, dir string, parent, req int64) (*replay.Recording, error) {
	var rec *replay.Recording
	var err error
	tr.timed("core.LoadRecording", parent, req, func() { rec, err = core.LoadRecording(dir) })
	return rec, err
}

// probe is one hindsight query kind over a recorded program.
type probe struct {
	name    string // "outer" or "inner"
	label   string // the probe statement's log label
	factory func() *script.Program
	want    int      // probe lines a correct replay writes
	ref     []string // the first query's logs, which later ones must equal
}

func outerProbe(p program) *probe {
	return &probe{name: "outer", label: outerLabel, factory: workloads.WithOuterProbe(p.factory), want: p.epochs}
}

// queryStats accumulates the program's counters over the traced queries of
// one probe kind.
type queryStats struct {
	n                        int
	openMs                   []float64
	restoreMs, restored      []float64
	restoredBytes, restoreNs int64
	fetch                    store.FetchSnapshot
	amplification            []float64
	initMs, workMs           []float64
	executed, imbalance      []float64
	steals                   []float64
}

// localQuery runs one hindsight query the way flor.Replay does — open the
// recording, then replay.Replay at G=2 with the library defaults — timing
// both from outside. With tr non-nil the query is traced: spans are
// recorded, the program's phase trace is requested and joined, and the
// counters go into st.
func (b *bench) localQuery(tr *tracer, dir string, epochs int, pr *probe, st *queryStats, encByExec map[int]int64) (time.Duration, error) {
	req := tr.newReq()
	q := tr.begin("query."+pr.name, 0, req)
	t0 := time.Now()
	rec, err := b.open(tr, dir, q.id, req)
	openD := time.Since(t0)
	if err != nil {
		return time.Since(t0), err
	}
	opts := replay.Options{Workers: replayWorkers}
	var base int64
	if tr != nil {
		opts.Trace = obs.NewTrace()
		base = tr.Now()
	}
	var res *replay.Result
	rs := tr.begin("replay.Replay", q.id, req)
	res, err = replay.Replay(rec, pr.factory, opts)
	rs.end()
	lat := time.Since(t0)
	q.end()
	if err != nil {
		return lat, err
	}
	if err := checkReplay(res, pr.label, pr.want, &pr.ref); err != nil {
		return lat, err
	}
	if tr != nil {
		tr.importReplay(opts.Trace, rs.id, req, base)
		st.add(res, epochs, openD)
		var workers store.FetchSnapshot
		for _, w := range res.Workers {
			workers = workers.Add(w.Fetch)
		}
		b.checkTierSum(pr.name, opts.Trace.Spans(), workers, encByExec)
	}
	return lat, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (st *queryStats) add(res *replay.Result, epochs int, openD time.Duration) {
	st.n++
	st.openMs = append(st.openMs, ms(openD))
	var restoreNs, initNs, workNs, restored, executed, maxBusy, sumBusy int64
	for _, w := range res.Workers {
		restoreNs += w.RestoreNs
		initNs += w.InitNs
		workNs += w.WorkNs
		restored += int64(w.Restored)
		executed += int64(w.Executed)
		st.restoredBytes += w.RestoredBytes
		st.fetch = st.fetch.Add(w.Fetch)
		busy := w.SetupNs + w.InitNs + w.WorkNs
		maxBusy = max(maxBusy, busy)
		sumBusy += busy
	}
	st.restoreNs += restoreNs
	st.restoreMs = append(st.restoreMs, float64(restoreNs)/1e6)
	st.restored = append(st.restored, float64(restored))
	st.amplification = append(st.amplification, float64(restored)/float64(epochs))
	st.initMs = append(st.initMs, float64(initNs)/1e6)
	st.workMs = append(st.workMs, float64(workNs)/1e6)
	st.executed = append(st.executed, float64(executed))
	if sumBusy > 0 {
		st.imbalance = append(st.imbalance, float64(maxBusy)/(float64(sumBusy)/float64(len(res.Workers))))
	}
	st.steals = append(st.steals, float64(res.Steals))
}

// setRestoreLayer reports restore and fetch-tier figures from st, per
// query.
func (b *bench) setRestoreLayer(st *queryStats) {
	if st.n == 0 {
		return
	}
	n := float64(st.n)
	b.layer["core.open_ms"] = median(st.openMs)
	b.layer["skipblock.restore_ms"] = median(st.restoreMs)
	b.layer["skipblock.restored"] = median(st.restored)
	if st.restoreNs > 0 {
		b.layer["skipblock.restore_mbps"] = float64(st.restoredBytes) / 1e6 / (float64(st.restoreNs) / 1e9)
	}
	b.layer["store.fetch.mmap_mb"] = float64(st.fetch.MmapBytes) / 1e6 / n
	b.layer["store.fetch.scatter_mb"] = float64(st.fetch.ScatterBytes) / 1e6 / n
	b.layer["store.fetch.ranged_mb"] = float64(st.fetch.RangedBytes) / 1e6 / n
	b.layer["store.fetch.cache_mb"] = float64(st.fetch.CacheBytes) / 1e6 / n
	b.layer["replay.restore_amplification"] = median(st.amplification)
}

// setSchedLayer reports worker-phase and scheduling figures from st.
func (b *bench) setSchedLayer(st *queryStats) {
	if st.n == 0 {
		return
	}
	b.layer["replay.init_ms"] = median(st.initMs)
	b.layer["replay.work_ms"] = median(st.workMs)
	b.layer["skipblock.executed"] = median(st.executed)
	b.layer["sched.imbalance"] = median(st.imbalance)
	b.layer["sched.steals"] = median(st.steals)
}

// encodedSizes maps each checkpoint's execution number to its encoded size
// in the store, for the tier-sum check. It returns nil when a run has more
// than one instrumented loop (an execution number would be ambiguous) or
// deduplicated chunks (a checkpoint's stored bytes would undercount what a
// restore reads).
func encodedSizes(dir string) (map[int]int64, error) {
	rec, err := core.LoadRecording(dir)
	if err != nil {
		return nil, err
	}
	d := rec.Store.Dedup()
	if d.StoredRawBytes != d.LogicalBytes {
		return nil, nil
	}
	out := map[int]int64{}
	loop := ""
	for _, m := range rec.Store.Metas() {
		if loop != "" && m.Key.LoopID != loop {
			return nil, nil
		}
		loop = m.Key.LoopID
		out[m.Key.Exec] = m.StoredBytes
	}
	return out, nil
}

// encodedFetch sums the fetch tiers that count encoded pack bytes (every
// tier but the payload cache, which counts the logical bytes it saved).
func encodedFetch(f store.FetchSnapshot) int64 {
	return f.MmapBytes + f.ScatterBytes + f.RangedBytes + f.RemoteBytes + f.CacheTierBytes + f.SingleflightBytes
}

// checkTierSum is the traced run's fetch consistency check for one query:
// the bytes its restore spans attribute to fetch tiers must equal the
// query's own totals (the workers' reports, or the response's cost block)
// and, unless payload-cache hits stood in for some reads, the encoded size
// of the checkpoints it restored. Violations are noted, never hidden.
func (b *bench) checkTierSum(what string, spans []obs.Span, totals store.FetchSnapshot, encByExec map[int]int64) {
	var attributed, encoded int64
	cacheHit := false
	for _, s := range spans {
		if s.Name != "restore" {
			continue
		}
		a := s.Attrs
		attributed += a["mmap_bytes"] + a["scatter_bytes"] + a["ranged_bytes"] + a["remote_bytes"] + a["cache_tier_bytes"] + a["singleflight_bytes"]
		cacheHit = cacheHit || a["cache_bytes"] > 0
		encoded += encByExec[int(a["exec"])]
	}
	fetched := encodedFetch(totals)
	if attributed != fetched {
		b.note("VIOLATION %s query: restore spans attribute %d bytes to fetch tiers, its totals %d", what, attributed, fetched)
	}
	if encByExec == nil || cacheHit {
		b.tierSkipped++
		return
	}
	b.tierChecked++
	if fetched != encoded {
		b.note("VIOLATION %s query: fetch tiers served %d bytes, the restored checkpoints encode %d", what, fetched, encoded)
	}
}

// runReplayRsNt is the replay-rsnt workload: a closed loop of outer-probe
// replays over a dense RsNt recording, whose restores go through the
// scatter tier.
func runReplayRsNt(b *bench) error { return b.runLocalReplay("RsNt", false, "scatter") }

// runReplayCifr is the replay-cifr workload: outer-probe replays over a
// dense Cifr recording, whose restores go through the mmap tier, with one
// inner-probe replay in every block of cifrInnerEvery queries.
func runReplayCifr(b *bench) error { return b.runLocalReplay("Cifr", true, "mmap") }

// runLocalReplay drives a local replay workload; the traced run checks
// that at least 90% of the outer queries' restored bytes came through
// tier, the workload's reason to exist.
func (b *bench) runLocalReplay(name string, withInner bool, tier string) error {
	p, err := loadProgram(name, b.cfg.scale)
	if err != nil {
		return err
	}
	var dir string
	var mats []matTotals
	err = b.setup(func(i int) error {
		dir = filepath.Join(b.cfg.workDir, fmt.Sprintf("run-%d", i))
		res, _, err := b.recordChecked(dir, p)
		if err != nil {
			return err
		}
		var mt matTotals
		mt.add(res.MatStats)
		mats = append(mats, mt)
		return nil
	})
	if err != nil {
		return err
	}
	b.setMatLayer(mats)
	var encByExec map[int]int64
	if b.tr != nil {
		if encByExec, err = encodedSizes(dir); err != nil {
			return err
		}
	}

	outer := outerProbe(p)
	inner := &probe{name: "inner", label: innerLabel, factory: workloads.WithInnerProbe(p.factory)}
	if withInner {
		// One grad-norm line per training step of every epoch.
		inner.want = p.epochs * trainSteps(p)
	}
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x5eed))
	innerAt := rng.IntN(cifrInnerEvery)

	// The main operation is one query, or with inner replays in the mix one
	// block of cifrInnerEvery queries, whose CPU time per query is cpu_ms:
	// so the inner replays count in it, and the loop stops only at a block
	// boundary, so every run has the same inner:outer composition.
	perOp := 1
	if withInner {
		perOp = cifrInnerEvery
	}
	var outerMs, cpuMs, innerS []float64
	var outerSt, innerSt queryStats
	var tracedMs, untracedMs []float64
	var opCPU time.Duration
	start := time.Now()
	end := b.deadline()
	ops := 0
	for ; ops == 0 || time.Now().Before(end) || ops%perOp != 0; ops++ {
		pos := ops % cifrInnerEvery
		if pos == 0 && ops > 0 {
			innerAt = rng.IntN(cifrInnerEvery)
		}
		pr, st := outer, &outerSt
		if withInner && pos == innerAt {
			pr, st = inner, &innerSt
		}
		// The traced run traces every other outer query, so its untraced
		// half measures the tracing overhead, and every inner query.
		var tr *tracer
		if ops%2 == 0 || pr == inner {
			tr = b.tr
		}
		c0 := cpuTime()
		lat, err := b.localQuery(tr, dir, p.epochs, pr, st, encByExec)
		opCPU += cpuTime() - c0
		if (ops+1)%perOp == 0 {
			cpuMs = append(cpuMs, ms(opCPU)/float64(perOp))
			opCPU = 0
		}
		b.attempt(fmt.Sprintf("query %d (%s)", ops, pr.name), err)
		if err != nil {
			continue
		}
		if pr == inner {
			innerS = append(innerS, lat.Seconds())
			continue
		}
		outerMs = append(outerMs, ms(lat))
		if b.tr != nil {
			if tr != nil {
				tracedMs = append(tracedMs, ms(lat))
			} else {
				untracedMs = append(untracedMs, ms(lat))
			}
		}
	}
	b.setMain("outer_replay_p50_ms", "outer_replay_tail_ms", outerMs, cpuMs, ops, time.Since(start))
	if withInner {
		fmt.Fprintf(b.out, "CPU per query of each block (ms): %s\n", floats(cpuMs))
		b.addInfo("inner_replay_s (median)", median(innerS), "s")
		b.addInfo("inner replays", float64(len(innerS)), "count")
	}
	if b.tr != nil {
		b.addTraceOverhead(tracedMs, untracedMs)
		b.setRestoreLayer(&outerSt)
		sched := &outerSt
		if withInner {
			sched = &innerSt
		}
		b.setSchedLayer(sched)
		b.reportTierShares(&outerSt, tier)
	}
	return nil
}

// reportTierShares prints which local fetch tier served the outer queries'
// restored bytes and checks that claim served at least 90% of them.
func (b *bench) reportTierShares(st *queryStats, claim string) {
	f := st.fetch
	total := encodedFetch(f) + f.CacheBytes
	if total == 0 {
		b.note("CLAIM NOT MET: no restored bytes were attributed to a fetch tier")
		return
	}
	shares := map[string]float64{
		"mmap":    float64(f.MmapBytes) / float64(total),
		"scatter": float64(f.ScatterBytes) / float64(total),
		"ranged":  float64(f.RangedBytes) / float64(total),
	}
	for _, t := range []string{"mmap", "scatter", "ranged"} {
		b.addInfo("share of restored bytes via "+t, shares[t], "ratio")
	}
	if shares[claim] >= 0.9 {
		b.note("claim holds: %.1f%% of restored bytes came through the %s tier", 100*shares[claim], claim)
	} else {
		b.note("CLAIM NOT MET: only %.1f%% of restored bytes came through the %s tier (want >= 90%%)", 100*shares[claim], claim)
	}
}

// trainSteps is the iteration count of the program's nested training loop
// (the first loop in the main loop's body, where the inner probe goes).
func trainSteps(p program) int {
	for _, st := range p.factory().Main.Body {
		if st.Loop != nil {
			return st.Loop.Iters
		}
	}
	return 0
}
