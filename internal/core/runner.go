package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
)

// ErrStopped is returned by Run when the campaign was ended through Stop or
// context cancellation (Fig. 7's "end the campaign" control).
var ErrStopped = errors.New("core: campaign stopped")

// errHung is the internal sentinel the per-experiment watchdog returns. The
// target the attempt ran on is poisoned: the abandoned goroutine may still be
// executing on it, so the runner must never touch that instance again.
var errHung = errors.New("core: experiment attempt hung")

// RefSuffix and DetailSuffix name the special experiment rows.
const (
	// RefSuffix is appended to the campaign name for the reference run.
	RefSuffix = "/ref"
	// DetailSuffix is appended to an experiment name for its detail-mode
	// rerun (the parentExperiment scenario of §2.3).
	DetailSuffix = "/detail"
)

// Termination reasons synthesised by the campaign engine itself (they extend
// the target-level reasons of target.Reason in the terminationReason column).
const (
	// TermHang records an experiment whose attempt outlived the wall-clock
	// watchdog (Campaign.ExperimentTimeout): the target wedged, the campaign
	// moved on.
	TermHang = "hang"
	// TermFailed records an experiment whose attempts were all lost to
	// transient target faults (the retry budget was exhausted).
	TermFailed = "failed"
)

// refIndex is the experiment index the reference run is seeded with.
const refIndex = -1

// CampaignStore is the persistence surface the campaign runner needs —
// implemented by *dbase.Store and narrow enough for tests to wrap with
// failure-injecting decorators.
type CampaignStore interface {
	GetCampaign(name string) (dbase.CampaignRow, error)
	PutCampaign(row dbase.CampaignRow) error
	PutExperiment(row dbase.ExperimentRow) error
	PutExperiments(rows []dbase.ExperimentRow) error
	ExperimentNames(campaign string) (map[string]bool, error)
	GetExperiment(name string) (dbase.ExperimentRow, error)
}

// Progress is delivered to the progress callback after every experiment —
// the data behind the paper's progress window (Fig. 7).
type Progress struct {
	Campaign string
	// Done counts completed experiments out of Total.
	Done, Total int
	// LastOutcome summarises the most recent experiment's termination.
	LastOutcome string
	// Skipped counts experiments reused from an earlier, interrupted run.
	Skipped int
	// Detected counts experiments terminated by a detection mechanism so far
	// — Detected/Done is the live coverage proxy `goofi watch` displays.
	Detected int
	// Retries, Hangs and Quarantined mirror the running Summary's
	// fault-tolerance counters.
	Retries     int
	Hangs       int
	Quarantined int
}

// Summary reports a finished (or stopped) campaign.
type Summary struct {
	Campaign string
	// Completed is the number of fault-injection experiments logged by this
	// run, including hang/failed rows.
	Completed int
	// Skipped counts experiments found already logged and reused on resume.
	Skipped int
	// Terminations counts experiments per termination reason.
	Terminations map[string]int
	// Detections counts detected experiments per mechanism.
	Detections map[string]int
	// Retries counts experiment attempts retried after transient target
	// faults.
	Retries int
	// Hangs counts experiments the wall-clock watchdog gave up on.
	Hangs int
	// Quarantined counts target instances retired after a hang.
	Quarantined int
}

// Runner executes a fault-injection campaign over a target, logging
// everything to the GOOFI database. It may be paused, resumed and stopped
// from other goroutines while Run executes (Fig. 7).
type Runner struct {
	ops      target.Operations
	store    CampaignStore
	campaign Campaign

	// OnProgress, when set, is called after the reference run and after
	// every experiment. Calls come from the engine's goroutines, one at a
	// time, under the engine's lock: a callback may Pause, Resume or Stop
	// the runner, but must not wait for the campaign to make progress.
	OnProgress func(Progress)

	// PlanFunc, when set, replaces the fault model's default sampling. The
	// pre-injection analysis (§4 extension, internal/preinject) uses it to
	// schedule injections only into live locations.
	PlanFunc func(rng *rand.Rand, locs []faultmodel.Location, minTime, maxTime, horizon uint64) (faultmodel.Plan, error)

	// StopCondition, when set, is evaluated after every experiment with the
	// running summary, under the same lock as OnProgress; returning true
	// ends the campaign early with a nil error (an adaptive alternative to a
	// fixed NExperiments, e.g. "stop once enough detections accumulated for
	// the target confidence").
	StopCondition func(Summary) bool

	// Factory, when set, supplies independent target instances for parallel
	// execution (Campaign.Workers > 1): one target per executor, so
	// experiments share no simulator state. The runner's own ops still
	// performs validation and the reference run. The fault-tolerance layer
	// also uses it to replace quarantined targets (sequential and parallel
	// alike); without it, an executor whose target is quarantined retires.
	Factory target.Factory

	// Recorder, when set, collects engine-level observability: plan drawing
	// and retry backoff phases, the journal's attempt, inject and
	// store-flush events, and the campaign counters/wall-clock. nil
	// disables it at zero cost. Pair it with a target.Measured wrapper
	// (same recorder) to cover the target-operation phases too.
	Recorder *obsv.Recorder

	// Events, when set, receives live CampaignEvent frames: one per
	// MonitorInterval while the campaign runs, plus a final frame whose
	// counters match the returned Summary. Run closes the broadcaster, so
	// subscribers (the /campaign/events endpoint, `goofi watch`) terminate
	// cleanly with the campaign.
	Events *obsv.Broadcaster

	// MonitorInterval is the live-monitoring sample period (events and
	// persisted interval metrics); zero means one second.
	MonitorInterval time.Duration

	// Logger, when set, receives engine-level diagnostics (campaign start,
	// quarantines, degraded worker pools) through log/slog. nil discards.
	Logger *slog.Logger

	// mon is the active run's live monitor; set and cleared by Run, around
	// the engine's goroutines.
	mon *monitor

	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stopped bool
}

// NewRunner builds a runner. RegisterBuiltins is called implicitly so the
// shipped techniques are always available.
func NewRunner(ops target.Operations, store CampaignStore, campaign Campaign) *Runner {
	RegisterBuiltins()
	r := &Runner{ops: ops, store: store, campaign: campaign}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Pause suspends the campaign after the in-flight experiment completes.
func (r *Runner) Pause() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = true
}

// Resume continues a paused campaign.
func (r *Runner) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = false
	r.cond.Broadcast()
}

// Stop ends the campaign after the in-flight experiment completes.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.cond.Broadcast()
}

// checkpoint blocks while paused and reports whether the campaign must stop.
func (r *Runner) checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.paused && !r.stopped {
		r.cond.Wait()
	}
	if r.stopped {
		return ErrStopped
	}
	return nil
}

// runOutcome is the fault-tolerant conclusion of one experiment: success,
// hang, exhausted retries, or a permanent error that must abort the campaign.
type runOutcome struct {
	exp     Experiment
	retries int
	// hung: the watchdog fired; the target that ran the attempt is poisoned.
	hung bool
	// failed: every attempt was lost to transient faults; the experiment is
	// recorded as TermFailed and the campaign continues.
	failed bool
	// cause is the last transient error behind a failed outcome.
	cause error
	// err is a permanent (non-transient) failure: the campaign aborts.
	err error
}

// runRecovered invokes the experiment body with panic containment: a
// panicking simulator becomes a transient experiment failure instead of
// process death.
func runRecovered(run Algorithm, ops target.Operations, c Campaign, plan faultmodel.Plan) (exp Experiment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = target.Transient(fmt.Errorf("core: panic during experiment: %v", p))
		}
	}()
	return run(ops, c, plan)
}

// runAttempt executes one experiment attempt. Targets with seeded behaviour
// (target.ExperimentSeeder, e.g. the Flaky chaos wrapper) are reseeded per
// (campaign seed, experiment, attempt) so outcomes do not depend on worker
// scheduling. With Campaign.ExperimentTimeout set, the attempt runs under a
// wall-clock watchdog; on expiry errHung is returned and the attempt's
// goroutine is abandoned together with the target it runs on.
func (r *Runner) runAttempt(ops target.Operations, run Algorithm, plan faultmodel.Plan, idx, attempt int) (Experiment, error) {
	c := r.campaign
	if s, ok := ops.(target.ExperimentSeeder); ok {
		s.SeedExperiment(c.Seed, idx, attempt)
	}
	if c.ExperimentTimeout <= 0 {
		return runRecovered(run, ops, c, plan)
	}
	type attemptResult struct {
		exp Experiment
		err error
	}
	ch := make(chan attemptResult, 1)
	go func() {
		exp, err := runRecovered(run, ops, c, plan)
		ch <- attemptResult{exp: exp, err: err}
	}()
	timer := time.NewTimer(c.ExperimentTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.exp, res.err
	case <-timer.C:
		return Experiment{}, errHung
	}
}

// runExperiment runs one experiment to a conclusion: bounded retries with
// exponential backoff and full target re-init after transient faults, a hang
// verdict when the watchdog fires, and a permanent error otherwise. Retries
// reuse the already-drawn plan, so the campaign's seeded plan stream is never
// consumed by fault tolerance. tid is the virtual thread the experiment's
// engine-level spans are recorded under (0 = sequential/coordinator).
func (r *Runner) runExperiment(ops target.Operations, run Algorithm, plan faultmodel.Plan, idx int, tid int32) runOutcome {
	c := r.campaign
	journal := r.Recorder.Journal()
	var name string
	if journal != nil {
		name = r.experimentName(idx)
	}
	var out runOutcome
	for attempt := 0; ; attempt++ {
		var tc obsv.TraceContext
		var began time.Time
		if journal != nil {
			// The context is stamped onto the target stack before the attempt
			// launches (same ordering contract as SeedExperiment), so chaos
			// faults injected mid-attempt attribute to this attempt.
			tc = r.traceCtx(name, idx, attempt, tid)
			target.ApplyTraceContext(ops, tc)
			began = time.Now()
		}
		exp, err := r.runAttempt(ops, run, plan, idx, attempt)
		if journal != nil {
			tc.EmitSpan(obsv.EvAttempt, attemptDetail(exp, err), began)
		}
		if err == nil {
			out.exp = exp
			return out
		}
		if errors.Is(err, errHung) {
			if journal != nil {
				tc.Emit(obsv.EvHang, fmt.Sprintf("watchdog=%v", c.ExperimentTimeout))
			}
			out.hung = true
			out.exp = Experiment{Plan: plan, State: &StateVector{}}
			return out
		}
		if !target.IsTransient(err) {
			out.err = err
			return out
		}
		if attempt >= c.RetryLimit {
			out.failed = true
			out.cause = err
			out.exp = Experiment{Plan: plan, State: &StateVector{}}
			return out
		}
		out.retries++
		if c.RetryBackoff > 0 {
			shift := attempt
			if shift > 6 {
				shift = 6 // cap the exponential curve, not the retry count
			}
			sp := r.Recorder.BeginIn(obsv.PhaseRetry, tc)
			time.Sleep(c.RetryBackoff << shift)
			if journal != nil {
				sp.EndEvent(obsv.EvRetry, fmt.Sprintf("backoff=%v cause=%v", c.RetryBackoff<<shift, err))
			} else {
				sp.End()
			}
		} else if journal != nil {
			tc.Emit(obsv.EvRetry, fmt.Sprintf("cause=%v", err))
		}
		// Full power-up reset before the retry: a glitching target starts
		// the next attempt from a clean slate. A transient re-init failure
		// just burns the attempt; the next iteration re-inits again.
		if ierr := ops.InitTestCard(); ierr != nil && !target.IsTransient(ierr) {
			out.err = ierr
			return out
		}
	}
}

// experimentName names experiment idx as its logged row does, so trace
// events join against CampaignData rows by experiment name.
func (r *Runner) experimentName(idx int) string {
	if idx == refIndex {
		return r.campaign.Name + RefSuffix
	}
	return fmt.Sprintf("%s/e%04d", r.campaign.Name, idx)
}

// traceCtx builds the provenance context for one attempt of experiment idx.
func (r *Runner) traceCtx(name string, idx, attempt int, tid int32) obsv.TraceContext {
	return obsv.TraceContext{
		Rec:        r.Recorder,
		Campaign:   r.campaign.Name,
		Experiment: name,
		Index:      idx,
		Attempt:    attempt,
		TID:        tid,
	}
}

// attemptDetail summarises one attempt's verdict for its wide event.
func attemptDetail(exp Experiment, err error) string {
	switch {
	case err == nil:
		return "outcome=ok term=" + exp.Term.Reason.String()
	case errors.Is(err, errHung):
		return "outcome=hung"
	default:
		return "outcome=err cause=" + err.Error()
	}
}

// Run executes the campaign: it stores the campaign definition, performs the
// fault-free reference run, then runs and logs NExperiments fault-injection
// experiments (the outer loop of Fig. 2's faultInjectorSCIFI). Cancelling
// ctx stops the campaign between experiments.
func (r *Runner) Run(ctx context.Context) (Summary, error) {
	c := r.campaign
	start := time.Now()
	defer func() { r.Recorder.SetWallClock(time.Since(start)) }()
	r.Recorder.SetGauge("campaign.workers", int64(max(c.Workers, 1)))
	// Power up the test card first: campaign validation resolves location
	// filters against the live chain inventory.
	if err := r.ops.InitTestCard(); err != nil {
		return Summary{}, err
	}
	// Campaign setup — validation, location resolution, the campaign row —
	// is accounted as target-init: it is one-time preparation, and the span
	// starts after InitTestCard so a Measured target's own init phase is not
	// double-counted.
	ssp := r.Recorder.Begin(obsv.PhaseInit, 0)
	if err := c.Validate(r.ops); err != nil {
		ssp.End()
		return Summary{}, err
	}
	if c.Workers > 1 && r.Factory == nil {
		ssp.End()
		return Summary{}, fmt.Errorf("core: campaign %s: parallel execution (Workers=%d) needs a Runner.Factory",
			c.Name, c.Workers)
	}
	tech, err := techniqueFor(c.Technique)
	if err != nil {
		ssp.End()
		return Summary{}, err
	}
	locs, err := c.LocationFilter.Resolve(r.ops)
	if err != nil {
		ssp.End()
		return Summary{}, err
	}
	err = r.ensureCampaignRow()
	ssp.End()
	if err != nil {
		return Summary{}, err
	}

	// Live monitoring starts once the campaign row exists (the metrics rows
	// it may persist are FK-linked to CampaignData) and stops in finish,
	// which publishes the final event and flushes the buffered metrics rows
	// on this goroutine. A monitoring flush failure only surfaces when the
	// campaign itself succeeded — it must not mask the campaign's own error.
	mon, err := r.startMonitor()
	if err != nil {
		return Summary{}, err
	}
	r.mon = mon
	defer func() { r.mon = nil }()
	r.logger().Info("campaign starting",
		"campaign", c.Name, "experiments", c.NExperiments,
		"workers", max(c.Workers, 1), "technique", c.Technique)

	sum, err := r.execute(ctx, tech, locs)
	if ferr := mon.finish(sum); ferr != nil && err == nil {
		err = ferr
	}
	return sum, err
}

// accountOutcome folds one concluded experiment into the running summary and
// returns its progress label.
func (r *Runner) accountOutcome(sum *Summary, out runOutcome) string {
	sum.Completed++
	r.Recorder.Count("experiments.completed", 1)
	r.Recorder.Count("experiments.retries", int64(out.retries))
	switch {
	case out.hung:
		sum.Hangs++
		sum.Terminations[TermHang]++
		r.Recorder.Count("experiments.hangs", 1)
		return TermHang
	case out.failed:
		sum.Terminations[TermFailed]++
		r.Recorder.Count("experiments.failed", 1)
		return TermFailed
	}
	sum.Terminations[out.exp.Term.Reason.String()]++
	if out.exp.Term.Reason == target.TerminDetected {
		sum.Detections[out.exp.Term.Mechanism]++
	}
	return outcomeOf(out.exp)
}

// progress snapshots the summary's counters into a progress event.
func (r *Runner) progress(sum *Summary, done, total int, label string) Progress {
	return Progress{
		Campaign:    r.campaign.Name,
		Done:        done,
		Total:       total,
		LastOutcome: label,
		Skipped:     sum.Skipped,
		Detected:    detectedOf(*sum),
		Retries:     sum.Retries,
		Hangs:       sum.Hangs,
		Quarantined: sum.Quarantined,
	}
}

// outcomeOf renders an experiment's termination for progress reporting.
func outcomeOf(exp Experiment) string {
	outcome := exp.Term.Reason.String()
	if exp.Term.Mechanism != "" {
		outcome += " (" + exp.Term.Mechanism + ")"
	}
	return outcome
}

// tagWorker assigns the worker's virtual thread id to instrumented targets
// (target.Measured); other targets ignore it.
func tagWorker(ops target.Operations, tid int32) {
	if t, ok := ops.(interface{ SetWorkerID(int32) }); ok {
		t.SetWorkerID(tid)
	}
}

// ensureCampaignRow stores the CampaignData row, tolerating an identical
// pre-existing definition (the CLI setup phase may have written it already).
func (r *Runner) ensureCampaignRow() error {
	row := r.campaign.Row(r.ops.Name())
	existing, err := r.store.GetCampaign(r.campaign.Name)
	if err == nil {
		if existing != row {
			return fmt.Errorf("core: campaign %q already exists with a different definition", r.campaign.Name)
		}
		return nil
	}
	if !errors.Is(err, dbase.ErrNotFound) {
		return err
	}
	return r.store.PutCampaign(row)
}

func (r *Runner) report(p Progress) {
	if r.OnProgress != nil {
		r.OnProgress(p)
	}
	r.mon.observe(p)
}

func (r *Runner) experimentRow(name, parent string, exp Experiment) dbase.ExperimentRow {
	return dbase.ExperimentRow{
		ExperimentName:    name,
		ParentExperiment:  parent,
		CampaignName:      r.campaign.Name,
		ExperimentData:    exp.Data(),
		TerminationReason: exp.Term.Reason.String(),
		Mechanism:         exp.Term.Mechanism,
		Cycles:            exp.Term.Cycles,
		Iterations:        exp.Term.Iterations,
		StateVector:       exp.State.Encode(),
	}
}

// outcomeRow renders a concluded experiment as its LoggedSystemState row,
// overriding the termination reason for engine-synthesised outcomes.
func (r *Runner) outcomeRow(name, parent string, out runOutcome) dbase.ExperimentRow {
	row := r.experimentRow(name, parent, out.exp)
	switch {
	case out.hung:
		row.TerminationReason = TermHang
	case out.failed:
		row.TerminationReason = TermFailed
	}
	return row
}

// RerunDetail repeats a logged experiment in detail mode, logging the trace
// under "<experiment>/detail" with parentExperiment set — the exact E1/E2
// scenario the paper uses to motivate the parentExperiment column (§2.3).
// It returns the new experiment's name.
func (r *Runner) RerunDetail(experimentName string) (string, error) {
	row, err := r.store.GetExperiment(experimentName)
	if err != nil {
		return "", err
	}
	if row.CampaignName != r.campaign.Name {
		return "", fmt.Errorf("core: experiment %s belongs to campaign %s, runner holds %s",
			experimentName, row.CampaignName, r.campaign.Name)
	}
	plan, err := parseExperimentPlan(row.ExperimentData)
	if err != nil {
		return "", err
	}
	tech, err := techniqueFor(r.campaign.Technique)
	if err != nil {
		return "", err
	}
	r.ops.SetDetailMode(true)
	defer r.ops.SetDetailMode(false)
	exp, err := tech.run(r.ops, r.campaign, plan)
	if err != nil {
		return "", fmt.Errorf("core: detail rerun of %s: %w", experimentName, err)
	}
	name := experimentName + DetailSuffix
	if err := r.putRows([]dbase.ExperimentRow{r.experimentRow(name, experimentName, exp)}); err != nil {
		return "", err
	}
	return name, nil
}

// parseExperimentPlan recovers the injection plan from an experimentData
// column ("plan=[...] injected=k/n").
func parseExperimentPlan(data string) (faultmodel.Plan, error) {
	const prefix = "plan=["
	start := strings.Index(data, prefix)
	if start < 0 {
		return faultmodel.Plan{}, fmt.Errorf("core: experimentData %q has no plan", data)
	}
	start += len(prefix)
	length := strings.IndexByte(data[start:], ']')
	if length < 0 {
		return faultmodel.Plan{}, fmt.Errorf("core: experimentData %q has unterminated plan", data)
	}
	return faultmodel.ParsePlan(data[start : start+length])
}

// PlanOfExperiment recovers the injection plan from a LoggedSystemState
// experimentData value; analysis code uses it to attribute outcomes to
// fault locations.
func PlanOfExperiment(experimentData string) (faultmodel.Plan, error) {
	return parseExperimentPlan(experimentData)
}
