// Package obsv is GOOFI's observability subsystem: a dependency-free
// metrics registry (atomic counters, gauges, streaming histograms with
// p50/p95/p99) and one wide-event journal that records what a campaign did
// and where its wall-clock time went — target initialisation, planning,
// scan shift-in/out, workload execution, injections, attempts, retry
// backoffs, store flushes, WAL commits — exported as Chrome trace_event JSON
// (ChromeTrace) or persisted as provenance rows.
//
// The central type is Recorder. Every method is nil-safe: a nil *Recorder
// is the disabled state and costs one branch and zero allocations on the
// hot loop, so the campaign engine, the Measured target wrapper and the
// database layer carry a recorder unconditionally and the user pays only
// when observability is switched on.
//
// Phase accounting follows one rule that makes the numbers trustworthy:
// the Phase* constants are LEAF phases that never overlap in time on one
// goroutine, so their durations sum to (just under) the campaign
// wall-clock. Sections that contain leaf phases — an attempt, one
// injection, a commit-stage flush — are journal events only and stay out
// of the phase metrics, because they would double-count.
package obsv

import "time"

// Phase identifies one leaf phase of campaign execution. Leaf phases are
// mutually exclusive in time on any one goroutine: their total durations
// partition the campaign wall-clock (minus untimed engine glue).
type Phase uint8

const (
	// PhaseInit is target initialisation: power-up reset, workload
	// assembly/load, and arming the workload at its entry point.
	PhaseInit Phase = iota
	// PhasePlan is injection-plan sampling from the fault model.
	PhasePlan
	// PhaseWorkload is workload execution on the target: running to a
	// breakpoint, a trigger, or termination.
	PhaseWorkload
	// PhaseScanOut is shifting chain contents out of the target through the
	// TAP (ReadScanChain).
	PhaseScanOut
	// PhaseScanIn is shifting chain contents into the target (WriteScanChain).
	PhaseScanIn
	// PhaseMemory is test-card memory access through the host port.
	PhaseMemory
	// PhaseCheckpointSave is capturing a target snapshot: the scifi-checkpoint
	// single slot and the forking engine's golden-run checkpoint grid
	// (imports into a worker's pool are accounted here too).
	PhaseCheckpointSave
	// PhaseCheckpointRestore is rolling a target back to a saved snapshot.
	PhaseCheckpointRestore
	// PhaseRetry is backoff sleep between experiment retry attempts.
	PhaseRetry
	// PhaseFlush is the campaign waiting on its store: the final drain of
	// the commit stage. The commit stage itself runs beside the executors
	// and records its flushes as "store-flush" journal events (traced runs).
	PhaseFlush
	// PhaseWALAppend is the write-ahead log's group-commit work: writing
	// coalesced record batches and fsyncing them. It runs on the WAL's own
	// committer goroutine (a dedicated virtual thread), so it remains a leaf
	// phase — it never overlaps another phase on the same thread, it overlaps
	// the campaign threads it makes durable.
	PhaseWALAppend
	// NumPhases bounds the Phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseInit:              "target-init",
	PhasePlan:              "plan",
	PhaseWorkload:          "workload",
	PhaseScanOut:           "scan-out",
	PhaseScanIn:            "scan-in",
	PhaseMemory:            "memory",
	PhaseCheckpointSave:    "checkpoint-save",
	PhaseCheckpointRestore: "checkpoint-restore",
	PhaseRetry:             "retry-backoff",
	PhaseFlush:             "store-flush",
	PhaseWALAppend:         "wal-append",
}

// String names the phase as it appears in metrics dumps and traces.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Options configures a Recorder. Metrics are always on for a non-nil
// recorder; both options switch on the wide-event journal (journal.go).
type Options struct {
	// Trace also journals every leaf-phase span as a wide event, the
	// timeline behind Chrome trace export (ChromeTrace).
	Trace bool
	// Journal records provenance events only.
	Journal bool
}

// Journal capacities: a provenance-only ring holds tens of thousands of
// experiments' worth of events; one that also holds spans needs room for a
// dozen-odd phase events per experiment.
const (
	provenanceCap = 1 << 16
	spanCap       = 1 << 20
)

// Recorder collects metrics (always, when non-nil) and wide events (when
// Options.Trace or Options.Journal). The zero value is not usable; construct
// with New. A nil *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	reg     *Registry
	journal *Journal
	spans   bool // leaf-phase spans are journalled (Options.Trace)
	phases  [NumPhases]*Histogram
}

// New builds a recorder.
func New(o Options) *Recorder {
	r := &Recorder{reg: NewRegistry(), spans: o.Trace}
	for p := Phase(0); p < NumPhases; p++ {
		r.phases[p] = r.reg.Histogram("phase." + p.String())
	}
	switch {
	case o.Trace:
		r.journal = NewJournal(spanCap)
	case o.Journal:
		r.journal = NewJournal(provenanceCap)
	}
	return r
}

// Journal returns the wide-event journal, or nil when journalling is
// disabled (including on a nil recorder). Emitters branch on the returned
// pointer before formatting any event detail, keeping the disabled path free
// of allocations.
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// Tracing reports whether leaf-phase spans are journalled (Options.Trace).
// Sections that are timed only for the trace timeline branch on it.
func (r *Recorder) Tracing() bool {
	return r != nil && r.spans
}

// Registry exposes the underlying metrics registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Span is one in-flight leaf-phase section. Span is a value type: starting
// and ending a span allocates nothing.
type Span struct {
	tc    TraceContext // recorder, thread and attempt the span belongs to
	start time.Time
	phase Phase
}

// Begin starts a leaf-phase span on virtual thread tid (0 = the campaign
// coordinator, 1..N = executors, negative = the reserved lanes).
func (r *Recorder) Begin(p Phase, tid int32) Span {
	return r.BeginIn(p, TraceContext{TID: tid})
}

// BeginIn starts a leaf-phase span attributed to tc's attempt: its event
// names tc's campaign, experiment and attempt on thread tc.TID. The span
// records into r whatever tc.Rec holds, so a context the runner never
// stamped (journal off) still times the phase.
func (r *Recorder) BeginIn(p Phase, tc TraceContext) Span {
	if r == nil {
		return Span{}
	}
	tc.Rec = r
	return Span{tc: tc, start: time.Now(), phase: p}
}

// End closes the span: its duration goes into the phase histogram and, when
// spans are journalled, into one wide event named after the phase. End on a
// zero Span no-ops.
func (s Span) End() {
	r := s.tc.Rec
	if r == nil {
		return
	}
	d := time.Since(s.start)
	r.phases[s.phase].Observe(int64(d))
	if r.spans {
		s.tc.emit(s.phase.String(), "", s.start.UnixNano(), int64(d))
	}
}

// EndEvent closes the span like End, but journals it as a provenance event
// of the given kind and detail whenever the journal is on, spans or not: a
// section that is both a leaf phase and a provenance event (a retry
// backoff, a WAL group commit) is timed once and recorded once.
func (s Span) EndEvent(kind, detail string) {
	r := s.tc.Rec
	if r == nil {
		return
	}
	d := time.Since(s.start)
	r.phases[s.phase].Observe(int64(d))
	s.tc.emit(kind, detail, s.start.UnixNano(), int64(d))
}

// PhaseTotal returns the accumulated nanoseconds of one leaf phase.
func (r *Recorder) PhaseTotal(p Phase) int64 {
	if r == nil || p >= NumPhases {
		return 0
	}
	return r.phases[p].Sum()
}

// Count adds n to the named counter.
func (r *Recorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.reg.Counter(name).Add(n)
}

// SetGauge assigns the named gauge.
func (r *Recorder) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.reg.Gauge(name).Set(v)
}

// Observe records a duration into the named histogram (outside the phase
// namespace — the store layer uses this for per-call latencies).
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Histogram(name).Observe(int64(d))
}

// ObserveSince is Observe(name, time.Since(start)) — the one-line deferred
// instrumentation form.
func (r *Recorder) ObserveSince(name string, start time.Time) {
	if r == nil {
		return
	}
	r.reg.Histogram(name).Observe(int64(time.Since(start)))
}

// SetWallClock records the campaign's total wall-clock time; the snapshot's
// per-phase percentages are computed against it.
func (r *Recorder) SetWallClock(d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Gauge("campaign.wall_ns").Set(int64(d))
}
