package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/remote"
)

// The daemon's caches are sized below the two runs' combined checkpoint
// state (about 87 MB), so the timed section keeps fetching from the object
// pool and evicting from the cache tier. Default-sized caches would hold
// everything and the workload would bypass both.
const (
	flordPayloadCacheBytes = 16 << 20
	flordCacheTierBytes    = 32 << 20
)

const (
	flordClients      = 2  // closed-loop HTTP clients
	flordMixBlock     = 4  // one replay per block of this many requests (3:1)
	flordSampleIters  = 3  // iterations per sample query
	flordWarmSamples  = 4  // sample queries per run while warming
	flordTraceChecked = 12 // newest queries per run whose trace is fetched and checked (the ring keeps 16)
)

// flordRun is one recording the daemon serves, with the reference outputs
// computed from the local recording before upload.
type flordRun struct {
	id        string
	prog      program
	outer     func() *script.Program
	replayRef []string         // library outer replay logs
	iterRef   map[int][]string // library sample logs, per iteration
	encByExec map[int]int64
}

// sampleRef is the expected log stream of a sample over iters.
func (r *flordRun) sampleRef(iters []int) []string {
	s := append([]int(nil), iters...)
	sort.Ints(s)
	var out []string
	for i, it := range s {
		if i > 0 && s[i-1] == it {
			continue
		}
		out = append(out, r.iterRef[it]...)
	}
	return out
}

// flordReq is one generated request: the program sees only these.
type flordReq struct {
	run    int
	replay bool
	iters  []int
}

// genRequests derives the request stream from the seed. It comes in
// blocks in which every run gets one replay and flordMixBlock-1 samples of
// seeded iterations, in seeded order: each block keeps the 3:1 mix and an
// even split between runs exactly, so the sample latency median — which
// sits between the fast Cifr and the slow RsNt samples — does not move
// with the seed's run choices.
func genRequests(seed uint64, n int, runs []*flordRun) []flordReq {
	rng := rand.New(rand.NewPCG(seed, 0xf10d))
	out := make([]flordReq, 0, n+flordMixBlock*len(runs))
	for len(out) < n {
		block := len(out)
		for ri, r := range runs {
			out = append(out, flordReq{run: ri, replay: true})
			for j := 1; j < flordMixBlock; j++ {
				iters := rng.Perm(r.prog.epochs)[:min(flordSampleIters, r.prog.epochs)]
				out = append(out, flordReq{run: ri, iters: iters})
			}
		}
		rng.Shuffle(len(out)-block, func(i, j int) { out[block+i], out[block+j] = out[block+j], out[block+i] })
	}
	return out[:n]
}

// daemon is one in-process flord serving over loopback.
type daemon struct {
	srv    *serve.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon(opts serve.Options, runs []serve.RunConfig) (*daemon, error) {
	srv := serve.New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		base: "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: flordClients,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- srv.Serve(l) }()
	for _, rc := range runs {
		if err := srv.Register(rc); err != nil {
			d.stop()
			return nil, fmt.Errorf("register %s: %w", rc.ID, err)
		}
	}
	return d, nil
}

// stop drains the daemon and waits for its listener goroutine to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Shutdown fails only when queries outlive ctx; the benchmark has
	// stopped issuing them, and Serve's exit is awaited either way.
	_ = d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
}

// post sends one JSON request and decodes a 200 response into out.
func (d *daemon) post(path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// flordResult is what one request observed.
type flordResult struct {
	req                    flordReq
	latMs, wallMs, queueMs float64
	cost                   serve.QueryCost
	traceID                string
}

// query sends req and checks the response against the references.
func (d *daemon) query(req flordReq, runs []*flordRun) (flordResult, error) {
	r := runs[req.run]
	t0 := time.Now()
	if req.replay {
		var resp serve.ReplayResponse
		err := d.post("/v1/runs/"+r.id+"/replay", serve.ReplayRequest{Probe: "outer", Workers: replayWorkers}, &resp)
		res := flordResult{req: req, latMs: ms(time.Since(t0)), wallMs: float64(resp.WallNs) / 1e6, queueMs: float64(resp.QueueNs) / 1e6, cost: resp.Cost, traceID: resp.TraceID}
		if err != nil {
			return res, err
		}
		if resp.Anomalies > 0 {
			return res, fmt.Errorf("%s replay: %d anomalies", r.id, resp.Anomalies)
		}
		if err := sameLogs(r.replayRef, resp.Logs); err != nil {
			return res, fmt.Errorf("%s replay: %w", r.id, err)
		}
		return res, nil
	}
	var resp serve.SampleResponse
	err := d.post("/v1/runs/"+r.id+"/logs", serve.SampleRequest{Probe: "outer", Iterations: req.iters}, &resp)
	res := flordResult{req: req, latMs: ms(time.Since(t0)), wallMs: float64(resp.WallNs) / 1e6, queueMs: float64(resp.QueueNs) / 1e6, cost: resp.Cost, traceID: resp.TraceID}
	if err != nil {
		return res, err
	}
	if err := sameLogs(r.sampleRef(req.iters), resp.Logs); err != nil {
		return res, fmt.Errorf("%s sample %v: %w", r.id, req.iters, err)
	}
	return res, nil
}

// references computes a run's expected outputs from its local recording:
// the library outer replay and a library sample of every iteration.
func references(r *flordRun, dir string) error {
	rec, err := core.LoadRecording(dir)
	if err != nil {
		return err
	}
	res, err := replay.Replay(rec, r.outer, replay.Options{Workers: replayWorkers})
	if err != nil {
		return err
	}
	var ref []string
	if err := checkReplay(res, outerLabel, r.prog.epochs, &ref); err != nil {
		return fmt.Errorf("%s reference replay: %w", r.id, err)
	}
	r.replayRef = ref
	all := make([]int, r.prog.epochs)
	for i := range all {
		all[i] = i
	}
	r.iterRef = map[int][]string{}
	_, err = replay.ReplaySampleStream(rec, r.outer, all, replay.SampleOptions{}, func(it int, logs []string) error {
		r.iterRef[it] = append([]string(nil), logs...)
		return nil
	})
	if err != nil {
		return err
	}
	r.encByExec, err = encodedSizes(dir)
	return err
}

// runFlordRemote is the flord-remote workload: set-up records dense RsNt
// and Cifr, uploads both to a filesystem object pool, and starts a daemon
// serving them remotely through undersized caches; two HTTP clients then
// run a closed loop over the seeded 3:1 sample:replay mix. The main
// operation is a sample query on the RsNt run.
func runFlordRemote(b *bench) error {
	var runs []*flordRun
	for _, name := range []string{"RsNt", "Cifr"} {
		p, err := loadProgram(name, b.cfg.scale)
		if err != nil {
			return err
		}
		runs = append(runs, &flordRun{id: "run-" + name, prog: p, outer: outerProbe(p).factory})
	}
	var d *daemon
	var mats []matTotals
	root := ""
	err := b.setup(func(i int) error {
		if d != nil {
			// Only the last set-up serves the timed section.
			d.stop()
			d = nil
			if err := os.RemoveAll(root); err != nil {
				return err
			}
		}
		root = filepath.Join(b.cfg.workDir, fmt.Sprintf("setup-%d", i))
		var mt matTotals
		if err := b.recordConcurrently(root, runs, &mt); err != nil {
			return err
		}
		mats = append(mats, mt)
		pool := filepath.Join(root, "pool")
		obj, err := remote.NewFSStore(pool)
		if err != nil {
			return err
		}
		var cfgs []serve.RunConfig
		for _, r := range runs {
			dir := filepath.Join(root, r.id)
			if err := references(r, dir); err != nil {
				return err
			}
			b.tr.timed("remote.UploadRun", 0, b.tr.newReq(), func() { _, err = remote.UploadRun(obj, dir, r.id) })
			if err != nil {
				return fmt.Errorf("upload %s: %w", r.id, err)
			}
			cfgs = append(cfgs, serve.RunConfig{
				ID: r.id, Dir: filepath.Join(root, "ctl", r.id), Remote: true,
				Factories: map[string]func() *script.Program{"base": r.prog.factory, "outer": r.outer},
			})
		}
		reg := b.tr.begin("Server.Register", 0, b.tr.newReq())
		d, err = startDaemon(serve.Options{
			Remote:            pool,
			CacheMaxBytes:     flordCacheTierBytes,
			PayloadCacheBytes: flordPayloadCacheBytes,
		}, cfgs)
		reg.end()
		if err != nil {
			return err
		}
		// Warm: a replay and a few samples per run, so lazy opens and first
		// fetches happen before the timed section.
		warm := genRequests(b.cfg.seed^0xaa, 64, runs)
		for ri := range runs {
			n := 0
			for _, rq := range warm {
				if rq.run != ri || rq.replay || n == flordWarmSamples {
					continue
				}
				n++
				_, err := d.query(rq, runs)
				b.attempt(fmt.Sprintf("warm sample %s", runs[ri].id), err)
			}
			_, err := d.query(flordReq{run: ri, replay: true}, runs)
			b.attempt(fmt.Sprintf("warm replay %s", runs[ri].id), err)
		}
		return nil
	})
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return err
	}
	b.setMatLayer(mats)

	reqs := genRequests(b.cfg.seed, 1<<16, runs)
	before := d.srv.Stats()
	var next atomic.Int64
	var mu sync.Mutex
	var results []flordResult
	var failures []error
	start := time.Now()
	cpu0 := cpuTime()
	end := b.deadline()
	var wg sync.WaitGroup
	for c := 0; c < flordClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				if int(i) >= len(reqs) {
					return
				}
				rq := reqs[i]
				tr := b.tr
				reqID := tr.newReq()
				s := tr.begin(map[bool]string{false: "http.sample", true: "http.replay"}[rq.replay], 0, reqID)
				res, err := d.query(rq, runs)
				s.end()
				if tr != nil && err == nil {
					// Join the server's own accounting: queue wait, then
					// handler time, ending when the response was written.
					qs := s.at + int64(res.latMs*1e6) - int64((res.wallMs+res.queueMs)*1e6)
					tr.add("serve.queue", s.id, reqID, qs, qs+int64(res.queueMs*1e6))
					tr.add("serve.handler", s.id, reqID, qs+int64(res.queueMs*1e6), qs+int64((res.queueMs+res.wallMs)*1e6))
				}
				mu.Lock()
				failures = append(failures, err)
				if err == nil {
					results = append(results, res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpuUsed := cpuTime() - cpu0
	after := d.srv.Stats()
	for i, err := range failures {
		b.attempt(fmt.Sprintf("request %d", i), err)
	}

	var mainMs, sampleMs, replayMs []float64
	for _, r := range results {
		if !r.req.replay && r.req.run == 0 {
			mainMs = append(mainMs, r.latMs)
		}
		if r.req.replay {
			replayMs = append(replayMs, r.latMs)
		} else {
			sampleMs = append(sampleMs, r.latMs)
		}
	}
	// The main operation is one request; the daemon and both clients share
	// the process, so its CPU time is the timed section's over the
	// requests served. The headline latency is a sample of the RsNt run:
	// samples of both runs together are bimodal (a Cifr sample takes a
	// third of an RsNt one), so their median falls between the modes and
	// jumps from run to run.
	cpuPerReq := ms(cpuUsed) / float64(max(len(results), 1))
	b.setMain("rsnt_sample_p50_ms", "rsnt_sample_tail_ms", mainMs, []float64{cpuPerReq}, len(results), elapsed)
	b.addInfo("flord_qps", float64(len(results))/elapsed.Seconds(), "1/s")
	b.addLatency("sample_p50_ms", "sample_tail_ms", sampleMs)
	b.addLatency("flord_replay_p50_ms", "flord_replay_tail_ms", replayMs)
	b.addInfo("samples / replays", float64(len(sampleMs))/float64(max(len(replayMs), 1)), "ratio")
	// No tracing overhead is printed here: the daemon traces every query
	// whether or not the benchmark does, so the only difference between
	// traced and untraced requests would be the benchmark's own spans.
	if b.tr != nil {
		b.setServeLayer(results, before, after)
		b.checkServeTiers(d, runs, results, before, after)
	}
	return nil
}

// recordConcurrently records every run under root, one goroutine per run
// (two runs on two cores), adding their backmat figures to mt.
func (b *bench) recordConcurrently(root string, runs []*flordRun, mt *matTotals) error {
	errs := make([]error, len(runs))
	stats := make([]*core.RecordResult, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], _, errs[i] = b.recordChecked(filepath.Join(root, r.id), r.prog)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, s := range stats {
		mt.add(s.MatStats)
	}
	return nil
}

// setServeLayer reports the daemon-side figures of the timed section.
func (b *bench) setServeLayer(results []flordResult, before, after serve.Stats) {
	n := float64(len(results))
	if n == 0 {
		return
	}
	var queue, handler, httpMs, restoreMs []float64
	var fetch store.FetchSnapshot
	var wallNs float64
	for _, r := range results {
		queue = append(queue, r.queueMs)
		handler = append(handler, r.wallMs)
		httpMs = append(httpMs, r.latMs-r.wallMs-r.queueMs)
		restoreMs = append(restoreMs, float64(r.cost.RestoreNs)/1e6)
		fetch = fetch.Add(r.cost.Fetch)
		wallNs += r.wallMs * 1e6
	}
	b.layer["serve.queue_ms"] = median(queue)
	b.layer["serve.handler_ms"] = median(handler)
	b.layer["serve.http_ms"] = median(httpMs)
	b.layer["serve.restore_ms"] = mean(restoreMs)
	waitNs := float64(after.Pool.WaitNs - before.Pool.WaitNs)
	b.layer["sched.pool_wait_ms"] = waitNs / 1e6 / n
	if wallNs > 0 {
		b.layer["sched.pool_wait_frac"] = waitNs / wallNs
	}
	var hits, lookups int64
	for k, a := range after.PayloadCaches {
		p := before.PayloadCaches[k]
		hits += a.Hits - p.Hits
		lookups += a.Hits - p.Hits + a.Misses - p.Misses
	}
	if lookups > 0 {
		b.layer["backmat.payload_hit_rate"] = float64(hits) / float64(lookups)
	}
	if a, p := after.CacheTier, before.CacheTier; a != nil && p != nil {
		look := (a.Hits - p.Hits) + (a.Misses - p.Misses) + (a.Singleflights - p.Singleflights)
		if look > 0 {
			b.layer["cachetier.hit_rate"] = float64(a.Hits-p.Hits) / float64(look)
		}
		b.layer["cachetier.miss_mb"] = float64(a.MissBytes-p.MissBytes) / 1e6 / n
		b.layer["cachetier.evictions"] = float64(a.Evictions - p.Evictions)
		b.layer["cachetier.singleflight_mb"] = float64(a.SingleflightBytes-p.SingleflightBytes) / 1e6 / n
		tierRead := (a.HitBytes - p.HitBytes) + (a.MissBytes - p.MissBytes) + (a.SingleflightBytes - p.SingleflightBytes)
		if enc := fetch.RemoteBytes + fetch.CacheTierBytes + fetch.SingleflightBytes; enc > 0 {
			b.layer["cachetier.read_amplification"] = float64(tierRead) / float64(enc)
		}
	}
	b.layer["store.fetch.mmap_mb"] = float64(fetch.MmapBytes) / 1e6 / n
	b.layer["store.fetch.scatter_mb"] = float64(fetch.ScatterBytes) / 1e6 / n
	b.layer["store.fetch.ranged_mb"] = float64(fetch.RangedBytes) / 1e6 / n
	b.layer["store.fetch.cache_mb"] = float64(fetch.CacheBytes) / 1e6 / n
	b.layer["store.fetch.remote_mb"] = float64(fetch.RemoteBytes) / 1e6 / n
	b.layer["store.fetch.cache_tier_mb"] = float64(fetch.CacheTierBytes) / 1e6 / n
	b.addInfo("remote-fetched MB in timed section", float64(fetch.RemoteBytes)/1e6, "MB")
	evictions := b.layer["cachetier.evictions"]
	if fetch.RemoteBytes > 0 && evictions > 0 {
		b.note("claim holds: %.1f MB fetched from the object pool and %.0f cache-tier evictions in the timed section", float64(fetch.RemoteBytes)/1e6, evictions)
	} else {
		b.note("CLAIM NOT MET: %.1f MB fetched from the object pool and %.0f cache-tier evictions in the timed section (want both > 0)", float64(fetch.RemoteBytes)/1e6, evictions)
	}
}

// checkServeTiers is the traced run's consistency check for flord: the
// responses' cost blocks must sum to the daemon's per-run accounting, and
// the newest queries of each run must pass checkTierSum against their
// traces.
func (b *bench) checkServeTiers(d *daemon, runs []*flordRun, results []flordResult, before, after serve.Stats) {
	for ri, r := range runs {
		var sum store.FetchSnapshot
		for _, res := range results {
			if res.req.run == ri {
				sum = sum.Add(res.cost.Fetch)
			}
		}
		if got := after.Runs[r.id].Cost.Fetch.Sub(before.Runs[r.id].Cost.Fetch); got != sum {
			b.note("VIOLATION %s: responses' fetch tiers %+v differ from /v1/stats %+v", r.id, sum, got)
		}
		checked := 0
		for i := len(results) - 1; i >= 0 && checked < flordTraceChecked; i-- {
			if results[i].req.run != ri || results[i].traceID == "" {
				continue
			}
			checked++
			tr, err := d.srv.Trace(r.id, results[i].traceID)
			if err != nil {
				b.note("%s: trace %s unavailable: %v", r.id, results[i].traceID, err)
				continue
			}
			b.checkTierSum(r.id, tr.Spans(), results[i].cost.Fetch, r.encByExec)
		}
	}
}
