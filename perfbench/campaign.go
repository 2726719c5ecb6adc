package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// campaignShape is one in-process campaign workload.
type campaignShape struct {
	c   core.Campaign     // Name is set per campaign
	wal *sqldb.WALOptions // file-backed WAL store with this policy; nil: a file store saved once at the end
}

// Experiments per campaign.
const (
	scifiWALExperiments = 10000
	forkLateExperiments = 1000
)

// scifiWAL is the common durable campaign: short bubblesort experiments into
// a WAL store that fsyncs every commit batch.
func scifiWAL(seed int64, n int) campaignShape {
	return campaignShape{wal: &sqldb.WALOptions{SyncEvery: 1}, c: core.Campaign{
		Workload:       workload.BubbleSort(),
		Technique:      core.TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   n,
		Seed:           seed,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
		Workers:        2,
	}}
}

// forkLate is the long-prefix campaign checkpoint forking exists for: the
// control loop runs ~35k cycles and faults land only in the last ~1k.
func forkLate(seed int64, n int) campaignShape {
	w := workload.Control()
	w.MaxIterations = 960
	return campaignShape{c: core.Campaign{
		Workload:       w,
		Technique:      core.TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   n,
		Seed:           seed,
		InjectMinTime:  34000,
		InjectMaxTime:  35000,
		Fork:           true,
		Workers:        2,
	}}
}

// campaignRun is what one campaign of a workload measured.
type campaignRun struct {
	setupS float64 // store open, target registration, workload assembly
	runS   float64 // Runner.Run, call to return
	doneS  float64 // Runner.Run plus making the store durable
	readS  float64 // reopen from disk and read every row back
	refS   float64 // traced only: Run start to the first progress tick
	// CPU time of the process over setupS and runS (nothing else runs in
	// the process meanwhile, so all of it is the step's), and of the one
	// thread that did the read-back over readS.
	setupCPU, runCPU, readCPU float64
	probe                     float64 // mean CPU time of the calibration kernel run before and after
	peakMB                    float64 // peak resident set from set-up to read-back
	check                     rowCheck
	syncs                     int64 // traced only: fsyncs through the storage seam
	syncNs                    int64
	written                   int64
	tr                        *tracer
	complete                  int
}

// setupCampaign opens a fresh store at path, registers the Thor target and
// assembles the workload into it.
func setupCampaign(sh campaignShape, path string, fsys vfs.FS) (*dbase.Store, *target.ThorTarget, error) {
	var store *dbase.Store
	var err error
	if sh.wal != nil {
		store, err = dbase.OpenStoreWALFS(path, fsys, *sh.wal)
	} else {
		store, err = dbase.OpenStoreFS(path, fsys)
	}
	if err != nil {
		return nil, nil, err
	}
	ops := target.NewDefaultThorTarget()
	if err := core.RegisterTarget(store, ops, "perfbench"); err != nil {
		store.Close()
		return nil, nil, err
	}
	if err := ops.LoadWorkload(sh.c.Workload); err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, ops, nil
}

func removeStore(path string) {
	os.Remove(path)
	os.Remove(path + ".wal")
}

// runCampaign sets up, runs and reads back one campaign named name. With a
// tracer, the target, the factory's targets, the store and the filesystem
// are wrapped so each layer's calls are timed.
func runCampaign(sh campaignShape, dir, name string, tr *tracer) (campaignRun, error) {
	var out campaignRun
	path := filepath.Join(dir, name+".db")
	defer removeStore(path)
	var fsys vfs.FS = vfs.OS{}
	var cfs *countingFS
	if tr != nil {
		cfs = &countingFS{FS: vfs.OS{}}
		fsys = cfs
	}

	// Users run a campaign and its analysis as separate processes; collecting
	// the previous step's garbage first keeps one campaign's memory from
	// stacking on the last one's.
	runtime.GC()
	resetPeakRSS()
	start, cpu := time.Now(), processCPU()
	store, ops, err := setupCampaign(sh, path, fsys)
	if err != nil {
		return out, fmt.Errorf("setup %s: %w", name, err)
	}
	out.setupS, out.setupCPU = time.Since(start).Seconds(), (processCPU() - cpu).Seconds()

	c := sh.c
	c.Name = name
	var (
		cstore  core.CampaignStore = store
		tops    target.Operations  = ops
		factory                    = target.DefaultThorFactory()
	)
	if tr != nil {
		cstore = tr.wrapStore(store)
		tops = tr.wrapTarget(ops, "coordinator")
		factory = tr.wrapFactory(factory)
	}
	r := core.NewRunner(tops, cstore, c)
	r.Factory = factory
	start, cpu = time.Now(), processCPU()
	if tr != nil {
		r.OnProgress = func(core.Progress) {
			if out.refS == 0 {
				out.refS = time.Since(start).Seconds()
			}
		}
	}
	sum, err := r.Run(context.Background())
	out.runS, out.runCPU = time.Since(start).Seconds(), (processCPU() - cpu).Seconds()
	out.complete = sum.Completed
	if err == nil && sh.wal == nil {
		err = store.Save()
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	out.doneS = time.Since(start).Seconds()
	if err != nil {
		return out, fmt.Errorf("campaign %s: %w", name, err)
	}
	if cfs != nil {
		out.syncs, out.syncNs, out.written = cfs.syncs.Load(), cfs.syncNs.Load(), cfs.written.Load()
	}

	runtime.GC()
	var (
		back *dbase.Store
		rows []dbase.ExperimentRow
	)
	start = time.Now()
	readCPU := onThreadCPU(func() {
		if back, err = dbase.OpenStore(path); err == nil {
			rows, err = back.Experiments(name)
		}
	})
	out.readS, out.readCPU = time.Since(start).Seconds(), readCPU.Seconds()
	out.peakMB = peakRSSMB()
	if back != nil {
		back.Close()
	}
	if err != nil {
		return out, fmt.Errorf("read back %s: %w", name, err)
	}
	if out.check, err = checkRows(name, rows); err != nil {
		return out, err
	}
	out.tr = tr
	return out, nil
}

// campaignWorkload runs campaigns of one shape back to back for the window
// and records every end-to-end sample. With traced set, every other campaign
// is traced, so the same run yields the per-layer metrics and the tracing
// overhead without host drift between the two halves of a window.
func (b *bench) campaignWorkload(sh campaignShape) error {
	n := sh.c.NExperiments
	// Warm-up: fill caches and finish lazy set-up before anything is timed.
	warm := sh
	warm.c.NExperiments = max(n/10, 1)
	w, err := runCampaign(warm, b.scratch, "warmup", nil)
	if err != nil {
		return err
	}
	b.ops.check(w.complete == warm.c.NExperiments && w.check.rows == warm.c.NExperiments+1,
		"warm-up completed %d of %d", w.complete, warm.c.NExperiments)

	var untraced, traced []campaignRun
	p := b.probe()
	begin := time.Now()
	for k := 0; time.Since(begin) < b.window || (b.traced && len(traced) == 0); k++ {
		var tr *tracer
		if b.traced && k%2 == 1 {
			tr = newTracer()
		}
		run, err := runCampaign(sh, b.scratch, fmt.Sprintf("c%03d", k), tr)
		if err != nil {
			b.ops.add(n, n, err)
			return err
		}
		next := b.probe()
		run.probe, p = (p+next)/2, next
		b.checkCampaign(run, n)
		if tr != nil {
			traced = append(traced, run)
		} else {
			untraced = append(untraced, run)
		}
	}
	// A campaign's peak memory depends on how far the concurrent collector
	// fell behind the workers, which the host's load decides: in busy
	// stretches the median peak rose by a fifth. The lowest peak of the run
	// is what a campaign itself needs.
	lowest := math.Inf(1)
	for _, run := range append(untraced, traced...) {
		lowest = min(lowest, run.peakMB)
		b.sampleCPU("setup_s", "s", run.setupCPU, run.probe, run.probe)
		b.sampleCPU("exp_per_ref_cpu_s", "1/s", float64(n)/run.runCPU, run.probe, run.probe)
		b.sampleCPU("report_cpu_ms", "ms", run.readCPU*1e3, run.probe, run.probe)
		b.wallSample("setup_s", run.setupS)
		b.wallSample("exp_per_s", float64(n)/run.runS)
		b.wallSample("submit_to_done_s", run.doneS)
		b.wallSample("report_ms", run.readS*1e3)
	}
	b.sample("peak_rss_mb", lowest)
	// Set-up is short and jittery; take enough samples for a steady median.
	for len(b.samples["setup_s"]) < minSetupSamples {
		path := filepath.Join(b.scratch, "setup.db")
		start, cpu := time.Now(), processCPU()
		store, _, err := setupCampaign(sh, path, vfs.OS{})
		if err != nil {
			return err
		}
		cpuS := (processCPU() - cpu).Seconds()
		next := b.probe()
		b.sampleCPU("setup_s", "s", cpuS, p, next)
		p = next
		b.wallSample("setup_s", time.Since(start).Seconds())
		store.Close()
		removeStore(path)
	}
	if b.traced {
		b.campaignLayers(untraced, traced)
	}
	return nil
}

// checkCampaign applies the correctness gate to one campaign: every
// experiment completed, none failed, the reopened store holds N+1 rows, and
// the rows digest matches every other campaign of this seed.
func (b *bench) checkCampaign(run campaignRun, n int) {
	b.ops.add(n, run.check.failed, nil)
	b.ops.check(run.complete == n, "completed %d of %d experiments", run.complete, n)
	b.ops.check(run.check.failed == 0, "%d failed rows", run.check.failed)
	b.ops.check(run.check.rows == n+1, "reopened store holds %d rows, want %d", run.check.rows, n+1)
	b.checkDigest(b.workload, run.check.digest)
}

// campaignLayers turns the traced campaigns into per-layer metrics: each is
// the median over traced campaigns of that campaign's value.
func (b *bench) campaignLayers(untraced, traced []campaignRun) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for _, run := range traced {
		calls, ns := run.tr.layerTotals()
		rows := float64(run.check.rows)
		runS := float64(ns[kindRun]) / 1e9
		add("thor.cycles", float64(run.check.cycles))
		add("thor.run_s", runS)
		add("thor.cycles_per_s", ratio(float64(run.check.cycles), runS))
		add("scan.calls", float64(calls[kindScan]))
		add("scan.s", float64(ns[kindScan])/1e9)
		add("scan.us_per_call", ratio(float64(ns[kindScan])/1e3, float64(calls[kindScan])))
		add("target.init_calls", float64(calls[kindInit]))
		add("target.init_s", float64(ns[kindInit])/1e9)
		add("target.restore_calls", float64(calls[kindRestore]))
		add("target.restore_s", float64(ns[kindRestore])/1e9)
		add("target.checkpoint_mb", float64(run.tr.checkpointPeakBytes())/(1<<20))
		add("core.reference_s", run.refS)
		add("core.self_s", float64(run.tr.targetSelfNs())/1e9)
		puts := float64(calls[kindPut])
		add("dbase.put_calls", puts)
		add("dbase.rows_per_put", ratio(float64(run.tr.putRows), puts))
		add("dbase.put_s", float64(ns[kindPut])/1e9)
		add("dbase.put_ms_p50", median(run.tr.putNs)/1e6)
		tailNs, _, _ := tail(run.tr.putNs)
		add("dbase.put_ms_tail", tailNs/1e6)
		add("vfs.syncs", float64(run.syncs))
		add("vfs.sync_s", float64(run.syncNs)/1e9)
		add("vfs.rows_per_sync", ratio(rows, float64(run.syncs)))
		add("vfs.bytes_per_row", ratio(float64(run.written), rows))
	}
	for name, vs := range per {
		b.layers[name] = median(vs)
	}
	// Spans of the last traced campaign are written out for inspection.
	last := traced[len(traced)-1]
	if err := last.tr.writeSpans(filepath.Join(b.workdir, "traces", fmt.Sprintf("%s-seed%d.spans", b.workload, b.seed))); err != nil {
		b.ops.add(1, 1, err)
	}
	b.overhead(expPerCPUS(untraced), expPerCPUS(traced))
}

func expPerCPUS(runs []campaignRun) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, float64(r.complete)/r.runCPU)
	}
	return out
}
