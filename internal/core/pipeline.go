package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// This file is the campaign engine. Every campaign — sequential or
// parallel, plain or forked — runs through one pipeline:
//
//	plan → reference → N executors → commit
//
// Plans are drawn once, in seed order, on the Run goroutine. The reference
// step runs on the runner's own target: the plain reference run, or with
// Campaign.Fork the golden run that doubles as the checkpoint harvest. N
// executors then pull jobs from one shared cursor; N=1 is the sequential
// case and runs on the runner's own target, N>1 mints one target per
// executor from the Factory. Each concluded experiment is folded into the
// summary, reported, and queued for the commit stage: one goroutine that
// owns the store for the rest of the run and writes every row that queued
// while its previous commit was in flight in one PutExperiments. Executors
// never wait on the store.

// flushRetryLimit and flushRetryBackoff bound the commit stage's retries of
// a transiently failing store before the campaign aborts.
const (
	flushRetryLimit   = 3
	flushRetryBackoff = 5 * time.Millisecond
)

// job is one pre-planned experiment awaiting an executor.
type job struct {
	idx  int
	name string
	plan faultmodel.Plan
	// firstTime keys a forked experiment's checkpoint restore.
	firstTime uint64
}

// pipeline is the state one Run shares between its executors and its commit
// stage.
type pipeline struct {
	r      *Runner
	tech   technique
	jobs   []job
	commit *committer
	// fork holds the golden run's checkpoints; nil without Campaign.Fork.
	fork *forkSource
	// workers is the executor count.
	workers int

	next     atomic.Int64 // shared cursor into jobs
	halted   atomic.Bool  // dispatch ends: a failure or the StopCondition
	poisoned atomic.Bool  // a hang abandoned the runner's own target

	mu       sync.Mutex // guards the fields below and serialises reporting
	sum      Summary
	done     int // progress numerator: skipped plus concluded experiments
	received int
	lost     int   // executors retired for want of a replacement target
	lostErr  error // why the last one could not be replaced
	err      error // the first failure; aborts the campaign
	condStop bool
}

// execute runs the validated campaign through the pipeline. Split from Run
// so monitoring setup/teardown brackets the whole execution.
func (r *Runner) execute(ctx context.Context, tech technique, locs []faultmodel.Location) (Summary, error) {
	c := r.campaign

	// Propagate context cancellation into the pause/stop machinery.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			r.Stop()
		case <-watchDone:
		}
	}()

	p := &pipeline{r: r, tech: tech, sum: Summary{
		Campaign:     c.Name,
		Terminations: map[string]int{},
		Detections:   map[string]int{},
	}}
	// A stale snapshot from an earlier campaign must never leak in.
	r.adopt(r.ops)
	defer func() {
		// A hang poisons the target it ran on; if that was r.ops itself,
		// even the detail-mode reset must not touch it again.
		if !p.poisoned.Load() {
			r.ops.SetDetailMode(false)
		}
	}()

	// One prefix-scan of the campaign's logged experiments answers every
	// resume question: a store failure is propagated rather than treated as
	// "nothing logged", which would re-run completed work.
	rsp := r.Recorder.Begin(obsv.PhaseInit, 0)
	logged, err := r.store.ExperimentNames(c.Name)
	rsp.End()
	if err != nil {
		return p.sum, err
	}
	if p.jobs, err = r.drawPlans(locs, logged, &p.sum); err != nil {
		return p.sum, err
	}
	p.done = p.sum.Skipped

	p.commit = r.startCommitter(p.fail)
	err = p.run(logged)
	// The drain is the one stretch where the campaign waits on the store:
	// the store-flush phase.
	fsp := r.Recorder.Begin(obsv.PhaseFlush, 0)
	p.commit.close()
	fsp.End()
	return p.finish(err)
}

// drawPlans draws every experiment's plan from the single seeded PRNG in
// experiment order and returns the jobs not yet logged. Plans are drawn even
// for experiments skipped on resume, so the stream stays aligned and a
// resumed campaign is bit-identical to an uninterrupted one. A forked run's
// jobs are ordered by first injection time, so restores walk forward through
// the checkpoint grid and the executors' pools stay warm.
func (r *Runner) drawPlans(locs []faultmodel.Location, logged map[string]bool, sum *Summary) ([]job, error) {
	c := r.campaign
	planFn := c.Model.Plan
	if r.PlanFunc != nil {
		planFn = r.PlanFunc
	}
	rng := rand.New(rand.NewSource(c.Seed))
	journal := r.Recorder.Journal()
	psp := r.Recorder.Begin(obsv.PhasePlan, 0)
	defer psp.End()
	jobs := make([]job, 0, c.NExperiments)
	for i := 0; i < c.NExperiments; i++ {
		plan, err := planFn(rng, locs, c.InjectMinTime, c.InjectMaxTime, c.Workload.MaxCycles)
		if err != nil {
			return nil, fmt.Errorf("core: experiment %d: %w", i, err)
		}
		name := r.experimentName(i)
		if logged[name] {
			sum.Skipped++
			r.Recorder.Count("experiments.skipped", 1)
			continue
		}
		if journal != nil {
			r.traceCtx(name, i, 0, 0).Emit(obsv.EvPlan, "plan="+plan.String())
		}
		j := job{idx: i, name: name, plan: plan}
		if c.Fork {
			j.firstTime = forkFirstTime(c.Technique, plan)
		}
		jobs = append(jobs, j)
	}
	if c.Fork {
		sort.Slice(jobs, func(a, b int) bool {
			if jobs[a].firstTime != jobs[b].firstTime {
				return jobs[a].firstTime < jobs[b].firstTime
			}
			return jobs[a].idx < jobs[b].idx
		})
	}
	return jobs, nil
}

// run executes the reference step, then the executors, and returns once
// every executor has stopped.
func (p *pipeline) run(logged map[string]bool) error {
	r, c := p.r, p.r.campaign
	ops, err := p.reference(logged)
	if err != nil || len(p.jobs) == 0 {
		return err
	}
	// Mint every executor's target up front so a factory failure aborts
	// before any experiment runs.
	p.workers = min(max(c.Workers, 1), len(p.jobs))
	execs := make([]*executor, p.workers)
	for k := range execs {
		if p.workers > 1 {
			if ops, err = r.mint(); err != nil {
				return fmt.Errorf("core: campaign %s: worker %d: %w", c.Name, k, err)
			}
		}
		if execs[k], err = p.newExecutor(ops, int32(k+1)); err != nil {
			return fmt.Errorf("core: campaign %s: worker %d: %w", c.Name, k, err)
		}
	}
	p.next.Store(int64(p.workers))
	var wg sync.WaitGroup
	for _, e := range execs {
		wg.Add(1)
		go func(e *executor) {
			defer wg.Done()
			p.work(e)
		}(e)
	}
	wg.Wait()
	return nil
}

// reference runs the reference step on the runner's own target and queues
// its row under <campaign>/ref (Fig. 2, makeReferenceRun): the plain
// reference run, or with Fork the golden run whose checkpoints become
// p.fork. A logged reference is reused on resume (the "restart" control of
// Fig. 7), except that a forked run with work left repeats the golden run
// for its checkpoints. The reference enjoys the same retry protection as
// experiments. A hang quarantines the target and reruns the step on a
// Factory-minted replacement, at most RetryLimit times; anything else
// aborts, because the campaign is meaningless without a reference. It
// returns the target the step finished on, which a sequential executor
// inherits.
func (p *pipeline) reference(logged map[string]bool) (target.Operations, error) {
	r, c := p.r, p.r.campaign
	ops := r.ops
	refLogged := logged[c.Name+RefSuffix]
	if refLogged && (!c.Fork || len(p.jobs) == 0) {
		return ops, nil
	}
	var h *harvest
	body := func(target.Operations) Algorithm { return p.tech.run }
	if c.Fork {
		h = newHarvest(c, p.jobs)
		body = func(ops target.Operations) Algorithm { return h.golden(r, ops) }
	}

	out := r.runExperiment(ops, body(ops), faultmodel.Plan{}, refIndex, 0)
	for hangs := 0; out.hung && r.Factory != nil && hangs < c.RetryLimit; hangs++ {
		// The abandoned goroutine still owns the hung target (and, forked,
		// its checkpoint store), so both are replaced wholesale.
		if ops == r.ops {
			p.poisoned.Store(true)
		}
		p.sum.Hangs++
		p.sum.Retries += out.retries
		p.sum.Quarantined++
		r.Recorder.Count("experiments.quarantined", 1)
		r.logger().Warn("reference run hung; quarantining target and re-minting",
			"campaign", c.Name, "watchdog", c.ExperimentTimeout)
		nops, err := r.mint()
		if err != nil {
			break
		}
		ops = nops
		// Seeded chaos wrappers replay per (seed, index, attempt): rerunning
		// under refIndex would wedge at exactly the same op forever, so each
		// rerun draws from its own index below refIndex — a seeding domain no
		// real experiment uses. The logged reference row is index-independent.
		out = r.runExperiment(ops, body(ops), faultmodel.Plan{}, refIndex-1-hangs, 0)
	}
	p.sum.Retries += out.retries
	switch {
	case out.err != nil:
		return nil, fmt.Errorf("core: reference run: %w", out.err)
	case out.hung:
		if ops == r.ops {
			p.poisoned.Store(true)
		}
		return nil, fmt.Errorf("core: reference run hung (watchdog %v); campaign cannot proceed without a reference", c.ExperimentTimeout)
	case out.failed:
		return nil, fmt.Errorf("core: reference run failed after %d attempts: %w", c.RetryLimit+1, out.cause)
	}
	if !refLogged {
		p.commit.add(r.experimentRow(c.Name+RefSuffix, "", out.exp))
	}
	r.report(r.progress(&p.sum, p.done, c.NExperiments, "reference "+out.exp.Term.Reason.String()))
	if h != nil {
		p.fork = h.export(r)
	}
	return ops, nil
}

// executor owns one target instance for the run. A fork-aware executor also
// owns that target's checkpoint pool; quarantine after a hang replaces the
// two together, so a checkpoint cached on a poisoned target is never trusted
// again.
type executor struct {
	ops target.Operations
	run Algorithm
	// tid is the virtual thread the executor records under; tid 0 belongs
	// to the coordinator (planning, the reference run, the commit stage).
	tid int32
}

// newExecutor binds an executor to a prepared target.
func (p *pipeline) newExecutor(ops target.Operations, tid int32) (*executor, error) {
	tagWorker(ops, tid)
	e := &executor{ops: ops, run: p.tech.run, tid: tid}
	if p.fork != nil {
		pool, err := p.fork.pool(p.r, p.tech, ops)
		if err != nil {
			return nil, err
		}
		e.run = pool.run
	}
	return e, nil
}

// work runs jobs until they run out, the campaign is stopped or halted, or
// the executor loses its target. Pause and Stop are honoured between
// experiments. Executor k starts on job k-1, so every executor gets work
// however the goroutines are scheduled; later jobs come from the shared
// cursor.
func (p *pipeline) work(e *executor) {
	r := p.r
	for k := int(e.tid) - 1; k < len(p.jobs); k = int(p.next.Add(1) - 1) {
		if r.checkpoint() != nil || p.halted.Load() {
			return
		}
		j := p.jobs[k]
		out := r.runExperiment(e.ops, e.run, j.plan, j.idx, e.tid)
		var lostErr error
		if out.hung {
			// The target wedged and still belongs to the abandoned attempt
			// goroutine: retire it and continue on a fresh instance. A new
			// executor, not a rebind — the hung attempt may still be
			// reading the old pool. A target that only glitched through
			// its retry budget stays: every attempt re-inits it.
			if r.Recorder.Journal() != nil {
				r.traceCtx(j.name, j.idx, 0, e.tid).Emit(obsv.EvQuarantine, "hung target retired")
			}
			if e.ops == r.ops {
				p.poisoned.Store(true)
			}
			ops, err := r.mint()
			if err == nil {
				e, err = p.newExecutor(ops, e.tid)
			}
			lostErr = err
		}
		p.handle(j, out, lostErr)
		if lostErr != nil {
			return
		}
	}
}

// handle folds one concluded experiment into the summary, reports progress
// and queues the row for the commit stage. It runs on the executor that
// concluded the experiment, one call at a time.
func (p *pipeline) handle(j job, out runOutcome, lostErr error) {
	r, c := p.r, p.r.campaign
	p.mu.Lock()
	defer p.mu.Unlock()
	p.received++
	p.sum.Retries += out.retries
	if out.hung {
		p.sum.Quarantined++
		r.Recorder.Count("experiments.quarantined", 1)
		r.logger().Warn("target quarantined", "campaign", c.Name, "experiment", j.name)
	}
	if lostErr != nil {
		p.lost++
		p.lostErr = lostErr
		r.logger().Warn("executor retired; pool degraded",
			"campaign", c.Name, "workersLost", p.lost, "workers", p.workers, "err", lostErr)
	}
	if out.err != nil {
		p.failLocked(fmt.Errorf("core: experiment %d: %w", j.idx, out.err))
		return
	}
	if p.err != nil {
		return
	}
	p.commit.add(r.outcomeRow(j.name, "", out))
	p.done++
	label := r.accountOutcome(&p.sum, out)
	r.report(r.progress(&p.sum, p.done, c.NExperiments, label))
	if !p.condStop && r.StopCondition != nil && r.StopCondition(p.sum) {
		p.condStop = true
		p.halted.Store(true)
	}
}

// fail records the run's first failure and halts dispatch.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failLocked(err)
}

func (p *pipeline) failLocked(err error) {
	if p.err == nil {
		p.err = err
	}
	p.halted.Store(true)
}

// finish settles the campaign's outcome once the executors and the commit
// stage have stopped.
func (p *pipeline) finish(err error) (Summary, error) {
	r, c := p.r, p.r.campaign
	switch {
	case err != nil:
		return p.sum, err
	case p.err != nil:
		return p.sum, p.err
	case p.condStop || p.received == len(p.jobs):
		return p.sum, nil
	}
	// Final tick: after an interrupted campaign the progress consumer must
	// be left with the true completed count, not the last snapshot.
	r.report(r.progress(&p.sum, p.done, c.NExperiments, "stopped"))
	if p.lost == p.workers {
		return p.sum, fmt.Errorf("core: campaign %s: all %d workers lost their targets (%d quarantined); %d experiments not run: %w",
			c.Name, p.workers, p.sum.Quarantined, len(p.jobs)-p.received, p.lostErr)
	}
	// Dispatch was cut short by Stop (or context cancellation, which maps
	// to Stop).
	return p.sum, ErrStopped
}

// adopt prepares a target for campaign duty: the campaign's detail mode and
// an empty checkpoint store.
func (r *Runner) adopt(ops target.Operations) {
	ops.SetDetailMode(r.campaign.DetailMode)
	if cs, ok := target.AsCheckpointStore(ops); ok {
		cs.DropCheckpoints()
	}
}

// mint draws a fresh target from the Factory and adopts it.
func (r *Runner) mint() (target.Operations, error) {
	if r.Factory == nil {
		return nil, errors.New("core: no Runner.Factory is set to replace a quarantined target")
	}
	ops, err := r.Factory.New()
	if err != nil {
		return nil, err
	}
	r.adopt(ops)
	return ops, nil
}

// committer is the pipeline's commit stage. Its goroutine is the only store
// writer while the pipeline runs: the Run goroutine touches the store only
// before the stage starts (campaign row, resume scan) and after close
// returns (run metrics), so the store needs no locking of its own. Rows
// queue without blocking their producers, and each PutExperiments carries
// every row that queued while the previous one was in flight. Rows commit
// in completion order; readers order rows by experiment name.
type committer struct {
	r    *Runner
	fail func(error)

	mu     sync.Mutex
	wake   sync.Cond
	queue  []dbase.ExperimentRow
	closed bool
	done   chan struct{}
}

// startCommitter starts the commit stage; fail receives its first error.
func (r *Runner) startCommitter(fail func(error)) *committer {
	cm := &committer{r: r, fail: fail, done: make(chan struct{})}
	cm.wake.L = &cm.mu
	go cm.loop()
	return cm
}

// add queues one row for the next commit.
func (cm *committer) add(row dbase.ExperimentRow) {
	cm.mu.Lock()
	cm.queue = append(cm.queue, row)
	cm.mu.Unlock()
	cm.wake.Signal()
}

// close commits whatever is still queued and waits for the stage to stop.
func (cm *committer) close() {
	cm.mu.Lock()
	cm.closed = true
	cm.mu.Unlock()
	cm.wake.Signal()
	<-cm.done
}

func (cm *committer) loop() {
	defer close(cm.done)
	failed := false
	for {
		cm.mu.Lock()
		for len(cm.queue) == 0 && !cm.closed {
			cm.wake.Wait()
		}
		batch := cm.queue
		cm.queue = nil
		cm.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		if failed {
			// The campaign is aborting: later rows are dropped, and the
			// resume scan re-runs them.
			continue
		}
		// A trace event, not a leaf phase: the commit stage runs beside the
		// executors, so counting it in the phase partition would
		// double-count wall-clock. Its latency is the store.PutExperiments
		// histogram.
		var began time.Time
		if cm.r.Recorder.Tracing() {
			began = time.Now()
		}
		err := cm.r.putRows(batch)
		if !began.IsZero() {
			obsv.TraceContext{Rec: cm.r.Recorder}.EmitSpan(obsv.PhaseFlush.String(), "rows="+strconv.Itoa(len(batch)), began)
		}
		if err != nil {
			failed = true
			cm.fail(err)
		}
	}
}

// putRows logs rows, absorbing transient store faults with bounded backoff:
// a campaign on a flaky disk completes exactly like one on a healthy disk.
// PutExperiments commits in chunks, so a failed call may have landed some
// rows; a retry re-sends only the rows the store does not hold yet.
func (r *Runner) putRows(rows []dbase.ExperimentRow) error {
	for attempt := 0; ; attempt++ {
		err := r.store.PutExperiments(rows)
		if err == nil {
			return nil
		}
		if attempt >= flushRetryLimit || !storeErrTransient(err) {
			return err
		}
		time.Sleep(flushRetryBackoff << attempt)
		logged, err := r.store.ExperimentNames(r.campaign.Name)
		if err != nil {
			return err
		}
		rest := rows[:0:0]
		for _, row := range rows {
			if !logged[row.ExperimentName] {
				rest = append(rest, row)
			}
		}
		rows = rest
	}
}

// storeErrTransient reports whether a store failure is worth retrying: a
// transient target-side fault (target.IsTransient — the taxonomy the retry
// machinery already speaks) or a transient injected storage fault
// (vfs.IsTransient — vfs.Faulty under -storage-chaos). Both ride the same
// bounded retry budget.
func storeErrTransient(err error) bool {
	return target.IsTransient(err) || vfs.IsTransient(err)
}
