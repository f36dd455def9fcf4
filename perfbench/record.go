package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/workloads"
)

// program is one Table 3 workload at the run's scale.
type program struct {
	name    string
	factory func() *script.Program
	epochs  int
}

func loadProgram(name string, sc workloads.Scale) (program, error) {
	spec, ok := workloads.Get(name)
	if !ok {
		return program{}, fmt.Errorf("unknown Table 3 workload %q", name)
	}
	return program{name: name, factory: spec.Build(sc), epochs: spec.Epochs(sc)}, nil
}

// denseRecord is how every recording here is made: adaptive checkpointing
// off (Fig. 7's "adaptivity disabled"), so every epoch materializes and the
// bytes written and restored repeat exactly from run to run.
var denseRecord = core.RecordOptions{DisableAdaptive: true}

// recordChecked records p into dir (core.Record, inside a span) and checks
// one checkpoint was made per epoch; it also returns the wall time seen
// from outside. In a traced run it checks backmat's time accounting.
func (b *bench) recordChecked(dir string, p program) (*core.RecordResult, time.Duration, error) {
	var res *core.RecordResult
	var err error
	t0 := time.Now()
	b.tr.timed("core.Record", 0, b.tr.newReq(), func() { res, err = core.Record(dir, p.factory, denseRecord) })
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if b.tr != nil {
		b.checkMatStats(p.name, res.MatStats)
	}
	if res.MatStats.Checkpoints != p.epochs {
		return res, d, fmt.Errorf("%s: %d checkpoints, want one per epoch (%d)", p.name, res.MatStats.Checkpoints, p.epochs)
	}
	return res, d, nil
}

// matTotals sums backmat.Stats over the records of one iteration or one
// set-up.
type matTotals struct {
	blockedS, snapshotS, backgroundS, encodeS, writeS float64
	checkpoints                                       int
	logical, stored                                   int64
}

func (m *matTotals) add(s backmat.Stats) {
	m.blockedS += float64(s.CallerNs) / 1e9
	m.snapshotS += float64(s.SnapshotNs) / 1e9
	m.backgroundS += float64(s.BackgroundNs) / 1e9
	m.encodeS += float64(s.SerializeNs) / 1e9
	m.writeS += float64(s.WriteNs) / 1e9
	m.checkpoints += s.Checkpoints
	m.logical += s.BytesWritten
	m.stored += s.StoredBytes
}

// checkMatStats is the traced run's backmat consistency check: snapshot
// time is part of the training thread's blocked time, and serialization
// plus writing happen either on the training thread or in the background,
// so they cannot exceed the two together. A violation is reported, not
// counted as a failed operation.
func (b *bench) checkMatStats(what string, s backmat.Stats) {
	if s.SnapshotNs > s.CallerNs {
		b.note("VIOLATION %s: backmat snapshot %.3fs exceeds blocked %.3fs", what, float64(s.SnapshotNs)/1e9, float64(s.CallerNs)/1e9)
	}
	if s.SerializeNs+s.WriteNs > s.CallerNs+s.BackgroundNs {
		b.note("VIOLATION %s: backmat encode+write %.3fs exceeds blocked+background %.3fs",
			what, float64(s.SerializeNs+s.WriteNs)/1e9, float64(s.CallerNs+s.BackgroundNs)/1e9)
	}
}

// setMatLayer reports the median over ms of each backmat figure.
func (b *bench) setMatLayer(ms []matTotals) {
	pick := func(f func(matTotals) float64) float64 {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = f(m)
		}
		return median(xs)
	}
	b.layer["backmat.blocked_s"] = pick(func(m matTotals) float64 { return m.blockedS })
	b.layer["backmat.snapshot_s"] = pick(func(m matTotals) float64 { return m.snapshotS })
	b.layer["backmat.background_s"] = pick(func(m matTotals) float64 { return m.backgroundS })
	b.layer["ckptfmt.encode_s"] = pick(func(m matTotals) float64 { return m.encodeS })
	b.layer["store.write_s"] = pick(func(m matTotals) float64 { return m.writeS })
	b.layer["backmat.checkpoints"] = pick(func(m matTotals) float64 { return float64(m.checkpoints) })
	b.layer["backmat.logical_mb"] = pick(func(m matTotals) float64 { return float64(m.logical) / 1e6 })
	b.layer["store.stored_mb"] = pick(func(m matTotals) float64 { return float64(m.stored) / 1e6 })
}

// runRecord is the record workload: each iteration runs the uninstrumented
// program (core.Vanilla) and its instrumented record (core.Record) for RTE,
// a frozen backbone whose checkpoints dedup, and Cifr, a mutating model
// whose checkpoints do not. Set-up runs each program uninstrumented for
// the reference logs. The main operation is one iteration's two records.
func runRecord(b *bench) error {
	var progs []program
	for _, name := range []string{"RTE", "Cifr"} {
		p, err := loadProgram(name, b.cfg.scale)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	// Set-up runs each program uninstrumented: its logs are the reference
	// that every vanilla run and record of the timed section must
	// reproduce byte for byte.
	refs := make([][]string, len(progs))
	err := b.setup(func(int) error {
		for j, p := range progs {
			var err error
			b.tr.timed("core.Vanilla", 0, b.tr.newReq(), func() { refs[j], _, err = core.Vanilla(p.factory) })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var recordMs, cpuMs, vanillaS, slowdown, openMs []float64
	var mats []matTotals
	var logical, stored int64
	start := time.Now()
	end := b.deadline()
	iters := 0
	for ; iters == 0 || time.Now().Before(end); iters++ {
		var vanillaD, recordD, recordCPU time.Duration
		var mt matTotals
		for j, p := range progs {
			var vanilla, recorded []string
			runVanilla := func() {
				var err error
				t0 := time.Now()
				b.tr.timed("core.Vanilla", 0, b.tr.newReq(), func() { vanilla, _, err = core.Vanilla(p.factory) })
				vanillaD += time.Since(t0)
				b.attempt(fmt.Sprintf("iteration %d vanilla %s", iters, p.name), err)
			}
			runRecord := func() {
				dir := filepath.Join(b.cfg.workDir, fmt.Sprintf("rec-%d-%s", iters, p.name))
				c0 := cpuTime()
				res, d, err := b.recordChecked(dir, p)
				recordD += d
				recordCPU += cpuTime() - c0
				if err == nil {
					err = b.checkOpen(dir, p, &openMs)
				}
				if err == nil {
					recorded = res.Logs
					mt.add(res.MatStats)
				}
				b.attempt(fmt.Sprintf("iteration %d record %s", iters, p.name), err)
				// The recording is checked; a failed removal only leaves
				// scratch space behind until the run's work directory goes.
				_ = os.RemoveAll(dir)
			}
			// The two programs run their phases in opposite orders, and the
			// orders swap every iteration, so every iteration holds one
			// record that runs first and one that runs after its vanilla.
			if (b.cfg.seed+uint64(iters)+uint64(j))%2 == 1 {
				runRecord()
				runVanilla()
			} else {
				runVanilla()
				runRecord()
			}
			if vanilla != nil {
				b.attempt(fmt.Sprintf("iteration %d %s vanilla log vs reference", iters, p.name), sameLogs(refs[j], vanilla))
			}
			if recorded != nil {
				b.attempt(fmt.Sprintf("iteration %d %s record log vs reference", iters, p.name), sameLogs(refs[j], recorded))
			}
		}
		recordMs = append(recordMs, ms(recordD))
		cpuMs = append(cpuMs, ms(recordCPU))
		vanillaS = append(vanillaS, vanillaD.Seconds())
		slowdown = append(slowdown, recordD.Seconds()/vanillaD.Seconds())
		mats = append(mats, mt)
		logical += mt.logical
		stored += mt.stored
	}
	elapsed := time.Since(start)
	b.setMain("record_ms (both programs)", "record_tail_ms", recordMs, cpuMs, iters, elapsed)
	b.addInfo("record_slowdown (record / vanilla)", median(slowdown), "ratio")
	b.addInfo("stored_bytes_per_logical", float64(stored)/float64(max(logical, 1)), "ratio")
	b.addInfo("iterations", float64(iters), "count")
	b.setMatLayer(mats)
	b.layer["core.vanilla_s"] = median(vanillaS)
	b.layer["core.open_ms"] = median(openMs)
	return nil
}

// checkOpen reopens a fresh recording (core.LoadRecording) and checks its
// store holds one checkpoint per epoch, appending the open time.
func (b *bench) checkOpen(dir string, p program, openMs *[]float64) error {
	t0 := time.Now()
	rec, err := b.open(b.tr, dir, 0, b.tr.newReq())
	*openMs = append(*openMs, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	if n := len(rec.Store.Metas()); n != p.epochs {
		return fmt.Errorf("%s: reopened store holds %d checkpoints, want %d", p.name, n, p.epochs)
	}
	return nil
}
