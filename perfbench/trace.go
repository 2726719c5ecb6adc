package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/scan"
	"goofi/internal/target"
	"goofi/internal/trigger"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// The traced run times calls into each layer from wrappers that live in
// this package: the program itself carries no extra tracing. Every wrapped
// call becomes a span on a lane. A lane is one sequential stream of calls:
// one target instance (the coordinator's, or one pool worker's) or the
// store. Spans stay in memory and are written out when the campaign ends.

type spanKind uint8

const (
	kindLane    spanKind = iota // a lane's own extent: the root of its spans
	kindInit                    // InitTestCard, LoadWorkload, RunWorkload
	kindRun                     // WaitForBreakpoint, WaitForTermination, WaitForTrigger
	kindScan                    // ReadScanChain, WriteScanChain
	kindRestore                 // RestoreCheckpointAt, RestoreCheckpoint
	kindSave                    // SaveCheckpointAt, SaveCheckpoint, ImportCheckpoint
	kindTarget                  // any other target operation
	kindPut                     // PutExperiment, PutExperiments
	kindStore                   // any other store operation
	numKinds
)

var kindNames = [numKinds]string{"lane", "init", "run", "scan", "restore", "save", "target", "put", "store"}

// span is one timed call, in nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	start, end int64
}

// lane collects the spans of one sequential caller. Only its owner appends,
// so recording takes no lock.
type lane struct {
	name  string
	spans []span
}

func (l *lane) record(k spanKind, start int64, end int64) {
	l.spans = append(l.spans, span{kind: k, start: start, end: end})
}

// tracer owns the lanes of one traced campaign.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	lanes   []*lane
	cps     []*tracedTarget // instances whose checkpoint footprint is tracked
	putNs   []float64       // latency of each store put call
	putRows int64           // rows those calls carried
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newLane(name string) *lane {
	l := &lane{name: name}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// layerTotals sums call counts and busy nanoseconds per span kind.
func (t *tracer) layerTotals() (calls [numKinds]int64, ns [numKinds]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		for _, s := range l.spans {
			calls[s.kind]++
			ns[s.kind] += s.end - s.start
		}
	}
	return calls, ns
}

// targetSelfNs is the engine's own time on target lanes: each lane's extent
// (first call start to last call end) minus the part its spans cover. It is
// the time a lane spent between target calls — dispatch, plan application,
// state encoding and waiting for the next job.
func (t *tracer) targetSelfNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, l := range t.lanes {
		if l.name == "store" || len(l.spans) == 0 {
			continue
		}
		root := span{kind: kindLane, start: l.spans[0].start, end: l.spans[0].end}
		for _, s := range l.spans {
			root.start = min(root.start, s.start)
			root.end = max(root.end, s.end)
		}
		total += selfTime(root, l.spans)
	}
	return total
}

// checkpointPeakBytes sums every tracked instance's largest reported
// checkpoint footprint.
func (t *tracer) checkpointPeakBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, tt := range t.cps {
		total += tt.cpPeak.Load()
	}
	return total
}

// selfTime is parent's duration minus the union of its children's intervals
// clipped to it, so overlapping children are not subtracted twice.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return (parent.end - parent.start) - covered
}

// writeSpans writes every span as one "lane kind start_ns end_ns" line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, l := range t.lanes {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s %s %d %d\n", l.name, kindNames[s.kind], s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTarget times every target operation onto its lane. Like
// target.Measured it forwards each optional capability the engine probes,
// so wrapping never changes which engine path a campaign takes.
type tracedTarget struct {
	target.Operations
	t      *tracer
	lane   *lane
	cpPeak atomic.Int64
}

func (t *tracer) wrapTarget(ops target.Operations, name string) *tracedTarget {
	tt := &tracedTarget{Operations: ops, t: t, lane: t.newLane(name)}
	t.mu.Lock()
	t.cps = append(t.cps, tt)
	t.mu.Unlock()
	return tt
}

// wrapFactory wraps every target the factory mints on a lane of its own.
func (t *tracer) wrapFactory(f target.Factory) target.Factory {
	var n atomic.Int32
	return target.FactoryFunc(func() (target.Operations, error) {
		ops, err := f.New()
		if err != nil {
			return nil, err
		}
		return t.wrapTarget(ops, fmt.Sprintf("worker%d", n.Add(1))), nil
	})
}

func (tt *tracedTarget) begin() int64 { return tt.t.now() }

func (tt *tracedTarget) end(k spanKind, start int64) { tt.lane.record(k, start, tt.t.now()) }

// Unwrap exposes the wrapped target to target.AsCheckpointStore.
func (tt *tracedTarget) Unwrap() target.Operations { return tt.Operations }

func (tt *tracedTarget) InitTestCard() error {
	s := tt.begin()
	defer tt.end(kindInit, s)
	return tt.Operations.InitTestCard()
}

func (tt *tracedTarget) LoadWorkload(w workload.Spec) error {
	s := tt.begin()
	defer tt.end(kindInit, s)
	return tt.Operations.LoadWorkload(w)
}

func (tt *tracedTarget) RunWorkload() error {
	s := tt.begin()
	defer tt.end(kindInit, s)
	return tt.Operations.RunWorkload()
}

func (tt *tracedTarget) WriteMemory(addr uint32, vals []uint32) error {
	s := tt.begin()
	defer tt.end(kindTarget, s)
	return tt.Operations.WriteMemory(addr, vals)
}

func (tt *tracedTarget) ReadMemory(addr uint32, n int) ([]uint32, error) {
	s := tt.begin()
	defer tt.end(kindTarget, s)
	return tt.Operations.ReadMemory(addr, n)
}

func (tt *tracedTarget) SetBreakpoint(cycle uint64) error {
	s := tt.begin()
	defer tt.end(kindTarget, s)
	return tt.Operations.SetBreakpoint(cycle)
}

func (tt *tracedTarget) WaitForBreakpoint(maxCycles uint64) (bool, error) {
	s := tt.begin()
	defer tt.end(kindRun, s)
	return tt.Operations.WaitForBreakpoint(maxCycles)
}

func (tt *tracedTarget) ReadScanChain(chain string) (scan.Bits, error) {
	s := tt.begin()
	defer tt.end(kindScan, s)
	return tt.Operations.ReadScanChain(chain)
}

func (tt *tracedTarget) WriteScanChain(chain string, bits scan.Bits) error {
	s := tt.begin()
	defer tt.end(kindScan, s)
	return tt.Operations.WriteScanChain(chain, bits)
}

func (tt *tracedTarget) WaitForTermination(spec target.TerminationSpec) (target.Termination, error) {
	s := tt.begin()
	defer tt.end(kindRun, s)
	return tt.Operations.WaitForTermination(spec)
}

// SetWorkerID forwards the pool's worker tag to instrumented inner targets.
func (tt *tracedTarget) SetWorkerID(tid int32) {
	if w, ok := tt.Operations.(interface{ SetWorkerID(int32) }); ok {
		w.SetWorkerID(tid)
	}
}

func (tt *tracedTarget) SaveCheckpoint() error {
	cp, ok := tt.Operations.(target.Checkpointer)
	if !ok {
		return target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindSave, s)
	return cp.SaveCheckpoint()
}

func (tt *tracedTarget) RestoreCheckpoint() (bool, error) {
	cp, ok := tt.Operations.(target.Checkpointer)
	if !ok {
		return false, target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindRestore, s)
	return cp.RestoreCheckpoint()
}

func (tt *tracedTarget) ClearCheckpoint() {
	if cp, ok := tt.Operations.(target.Checkpointer); ok {
		cp.ClearCheckpoint()
	}
}

func (tt *tracedTarget) SaveCheckpointAt(id uint64) error {
	cs, ok := tt.Operations.(target.CheckpointStore)
	if !ok {
		return target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindSave, s)
	return cs.SaveCheckpointAt(id)
}

func (tt *tracedTarget) RestoreCheckpointAt(id uint64) (bool, error) {
	cs, ok := tt.Operations.(target.CheckpointStore)
	if !ok {
		return false, target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindRestore, s)
	return cs.RestoreCheckpointAt(id)
}

func (tt *tracedTarget) DropCheckpointAt(id uint64) {
	if cs, ok := tt.Operations.(target.CheckpointStore); ok {
		cs.DropCheckpointAt(id)
	}
}

func (tt *tracedTarget) DropCheckpoints() {
	if cs, ok := tt.Operations.(target.CheckpointStore); ok {
		cs.DropCheckpoints()
	}
}

// CheckpointBytes forwards the footprint and keeps the instance's peak.
func (tt *tracedTarget) CheckpointBytes() int64 {
	cs, ok := tt.Operations.(target.CheckpointStore)
	if !ok {
		return 0
	}
	n := cs.CheckpointBytes()
	for {
		old := tt.cpPeak.Load()
		if n <= old || tt.cpPeak.CompareAndSwap(old, n) {
			return n
		}
	}
}

func (tt *tracedTarget) ExportCheckpoint(id uint64) (any, bool) {
	if cs, ok := tt.Operations.(target.CheckpointStore); ok {
		return cs.ExportCheckpoint(id)
	}
	return nil, false
}

func (tt *tracedTarget) ImportCheckpoint(id uint64, snap any) error {
	cs, ok := tt.Operations.(target.CheckpointStore)
	if !ok {
		return target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindSave, s)
	return cs.ImportCheckpoint(id, snap)
}

func (tt *tracedTarget) WaitForTrigger(trig trigger.Trigger, maxCycles uint64) (bool, error) {
	tw, ok := tt.Operations.(target.TriggerWaiter)
	if !ok {
		return false, target.ErrNotImplemented
	}
	s := tt.begin()
	defer tt.end(kindRun, s)
	return tw.WaitForTrigger(trig, maxCycles)
}

func (tt *tracedTarget) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	if es, ok := tt.Operations.(target.ExperimentSeeder); ok {
		es.SeedExperiment(campaignSeed, experiment, attempt)
	}
}

func (tt *tracedTarget) SetTraceContext(tc obsv.TraceContext) {
	target.ApplyTraceContext(tt.Operations, tc)
}

func (tt *tracedTarget) ObsvTraceContext() obsv.TraceContext {
	return target.TraceContextOf(tt.Operations)
}

// tracedStore times the campaign store's calls on the store lane.
type tracedStore struct {
	inner core.CampaignStore
	t     *tracer
	lane  *lane
}

func (t *tracer) wrapStore(s core.CampaignStore) *tracedStore {
	return &tracedStore{inner: s, t: t, lane: t.newLane("store")}
}

func (ts *tracedStore) put(rows int, fn func() error) error {
	s := ts.t.now()
	err := fn()
	e := ts.t.now()
	ts.t.mu.Lock()
	ts.lane.record(kindPut, s, e)
	ts.t.putNs = append(ts.t.putNs, float64(e-s))
	ts.t.putRows += int64(rows)
	ts.t.mu.Unlock()
	return err
}

func (ts *tracedStore) other(fn func()) {
	s := ts.t.now()
	fn()
	e := ts.t.now()
	ts.t.mu.Lock()
	ts.lane.record(kindStore, s, e)
	ts.t.mu.Unlock()
}

func (ts *tracedStore) PutExperiment(row dbase.ExperimentRow) error {
	return ts.put(1, func() error { return ts.inner.PutExperiment(row) })
}

func (ts *tracedStore) PutExperiments(rows []dbase.ExperimentRow) error {
	return ts.put(len(rows), func() error { return ts.inner.PutExperiments(rows) })
}

func (ts *tracedStore) GetCampaign(name string) (row dbase.CampaignRow, err error) {
	ts.other(func() { row, err = ts.inner.GetCampaign(name) })
	return row, err
}

func (ts *tracedStore) PutCampaign(row dbase.CampaignRow) (err error) {
	ts.other(func() { err = ts.inner.PutCampaign(row) })
	return err
}

func (ts *tracedStore) ExperimentNames(campaign string) (names map[string]bool, err error) {
	ts.other(func() { names, err = ts.inner.ExperimentNames(campaign) })
	return names, err
}

func (ts *tracedStore) GetExperiment(name string) (row dbase.ExperimentRow, err error) {
	ts.other(func() { row, err = ts.inner.GetExperiment(name) })
	return row, err
}

// countingFS counts fsyncs, their time and the bytes written through the
// storage seam. It is safe for concurrent use.
type countingFS struct {
	vfs.FS
	syncs   atomic.Int64
	syncNs  atomic.Int64
	written atomic.Int64
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) { return c.wrap(c.FS.Open(name)) }

func (c *countingFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	s := time.Now()
	err := f.File.Sync()
	f.fs.syncNs.Add(int64(time.Since(s)))
	f.fs.syncs.Add(1)
	return err
}
