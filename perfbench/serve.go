package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/service"
	"goofi/internal/sqldb"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// serve-report: an in-process campaign service behind a loopback listener,
// driven by closed-loop tenants. Each tenant submits a campaign, polls its
// status until done, fetches the report several times and forgets the
// campaign, then starts over.
const (
	serveTenants       = 2
	serveExperiments   = 1000
	reportsPerCampaign = 3
	pollInterval       = 5 * time.Millisecond
	serveSliceCount    = 6 // slices of the measured phase, calibrated one by one
)

// serveWAL is the group-commit policy `goofi serve -wal-sync
// every=8,interval=5ms` offers: acknowledged after the write, fsynced within
// 5 ms. Per-batch fsync is what scifi-wal measures; here it would let the
// host's fsync latency swamp the read path this workload is about.
var serveWAL = sqldb.WALOptions{SyncEvery: 8, SyncInterval: 5 * time.Millisecond}

// server is one running service instance.
type server struct {
	srv     *service.Server
	hs      *http.Server
	reports *reportTimer
	base    string
	dir     string
	cfs     *countingFS // traced only
	done    chan struct{}
}

// reportTimer wraps the service's handler and takes the CPU time each
// GET …/report costs the server. The service answers a report on the
// request's goroutine, which is locked to its thread for the call, so the
// thread's CPU clock counts that report's work and nothing else.
type reportTimer struct {
	next http.Handler
	mu   sync.Mutex
	ms   []float64
}

func (t *reportTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/report") {
		t.next.ServeHTTP(w, req)
		return
	}
	ms := float64(onThreadCPU(func() { t.next.ServeHTTP(w, req) })) / 1e6
	t.mu.Lock()
	t.ms = append(t.ms, ms)
	t.mu.Unlock()
}

// take returns the reports timed so far and starts afresh.
func (t *reportTimer) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := t.ms
	t.ms = nil
	return ms
}

func startServer(dir string, cfs *countingFS) (*server, error) {
	opts := service.Options{
		DataDir:     dir,
		Concurrency: serveTenants,
		WALOptions:  serveWAL,
	}
	if cfs != nil {
		opts.FS = cfs
	}
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	rt := &reportTimer{next: srv}
	s := &server{srv: srv, hs: &http.Server{Handler: rt}, reports: rt, base: "http://" + ln.Addr().String(), dir: dir, cfs: cfs, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and drains the service, waiting for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// served is one campaign a tenant ran through the service.
type served struct {
	tenant      int
	name        string
	submitToDoS float64
	queueWaitS  float64
	reports     []analysis.Report
	traceEvents int
	dropped     float64
	puts        int64
	putNs       int64
	putP50Ns    int64
	putP99Ns    int64
}

// client is one tenant's HTTP client and its latency samples.
type client struct {
	b      *bench
	s      *server
	http   *http.Client
	tenant int
	traced bool

	submitMs, statusMs, reportMs []float64
	runs                         []served
}

func (c *client) request(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.b.ops.do(c.http, req)
}

func (c *client) timed(dst *[]float64, method, path string, body []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.request(method, path, body)
	*dst = append(*dst, float64(time.Since(start))/1e6)
	return out, err
}

// campaign runs one submit → poll → report cycle.
func (c *client) campaign(name string, n int) (served, error) {
	sv := served{tenant: c.tenant, name: name}
	spec := service.Spec{
		Tenant:      tenantName(c.tenant),
		Campaign:    name,
		Workload:    "bubblesort",
		Locations:   "chain:internal.core",
		Experiments: n,
		Seed:        tenantSeed(c.b.seed, c.tenant),
		TMin:        10,
		TMax:        1400,
		Workers:     1,
	}
	id := spec.ID()
	body, _ := json.Marshal(spec)
	start := time.Now()
	if _, err := c.timed(&c.submitMs, "POST", "/campaigns", body); err != nil {
		return sv, err
	}
	for {
		out, err := c.timed(&c.statusMs, "GET", "/campaigns/"+id, nil)
		if err != nil {
			return sv, err
		}
		var st service.Status
		if err := json.Unmarshal(out, &st); err != nil {
			return sv, err
		}
		if st.Status != service.StatusQueued && sv.queueWaitS == 0 {
			sv.queueWaitS = time.Since(start).Seconds()
		}
		if st.Status == service.StatusDone {
			break
		}
		if st.Status != service.StatusQueued && st.Status != service.StatusRunning {
			return sv, fmt.Errorf("campaign %s ended %s: %s", id, st.Status, st.Error)
		}
		time.Sleep(pollInterval)
	}
	sv.submitToDoS = time.Since(start).Seconds()
	for i := 0; i < reportsPerCampaign; i++ {
		out, err := c.timed(&c.reportMs, "GET", "/campaigns/"+id+"/report", nil)
		if err != nil {
			return sv, err
		}
		var rep analysis.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			return sv, err
		}
		sv.reports = append(sv.reports, rep)
	}
	if c.traced {
		if err := c.layerProbes(&sv, id); err != nil {
			return sv, err
		}
	}
	_, err := c.request("DELETE", "/campaigns/"+id, nil)
	return sv, err
}

// layerProbes reads what the service itself exposes about a finished
// campaign: its provenance events (/trace), dropped trace events (/metrics)
// and its store latency histograms.
func (c *client) layerProbes(sv *served, id string) error {
	out, err := c.request("GET", "/campaigns/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	sv.traceEvents = bytes.Count(out, []byte("\n"))
	out, err = c.request("GET", "/metrics", nil)
	if err != nil {
		return err
	}
	sv.dropped = promSample(out, "goofi_trace_events_dropped_total", `campaign="`+id+`"`)
	snap := c.s.srv.Snapshots()[id]
	var most int64
	for _, h := range snap.Histograms {
		if h.Name != "store.PutExperiment" && h.Name != "store.PutExperiments" {
			continue
		}
		sv.puts += h.Count
		sv.putNs += h.TotalNs
		if h.Count > most {
			most, sv.putP50Ns, sv.putP99Ns = h.Count, h.P50Ns, h.P99Ns
		}
	}
	return nil
}

// promSample sums the samples of one Prometheus family whose labels contain
// match; an absent family reads 0.
func promSample(text []byte, family, match string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, match) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err == nil {
				sum += v
			}
		}
	}
	return sum
}

func tenantName(t int) string { return fmt.Sprintf("t%d", t) }

// tenantSeed gives each tenant its own plan stream derived from the run seed.
func tenantSeed(seed int64, t int) int64 { return seed*serveTenants + int64(t) }

// servePhase runs the tenants against one server until the deadline, each
// at least one campaign, and returns them with the process CPU time the
// phase took. prefix keeps campaign names of different phases apart.
func (b *bench) servePhase(s *server, prefix string, deadline time.Time, traced bool) ([]*client, float64, error) {
	cpu := processCPU()
	clients := make([]*client, serveTenants)
	errs := make([]error, serveTenants)
	var wg sync.WaitGroup
	for t := range clients {
		c := &client{b: b, s: s, http: &http.Client{Timeout: 2 * time.Minute}, tenant: t, traced: traced}
		clients[t] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				sv, err := c.campaign(fmt.Sprintf("%s%03d", prefix, k), serveExperiments)
				if err != nil {
					errs[c.tenant] = err
					return
				}
				c.runs = append(c.runs, sv)
			}
		}()
	}
	wg.Wait()
	cpuS := (processCPU() - cpu).Seconds()
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	return clients, cpuS, errors.Join(errs...)
}

// serveWorkload is the serve-report workload. With traced set, the window's
// first half runs against a plain server and the second against one whose
// filesystem is counted and whose trace endpoints are read; the report path
// is then replayed single-threaded to split a report into its layers.
func (b *bench) serveWorkload() error {
	// Set-up: what a campaign's store needs before its first experiment
	// (store open with the service's WAL policy, target registration,
	// workload assembly), then service start, listener and a first answered
	// health check.
	shape := campaignShape{wal: &serveWAL, c: core.Campaign{Workload: workload.BubbleSort()}}
	p := b.probe()
	for i := 0; i < minSetupSamples; i++ {
		dir := filepath.Join(b.scratch, fmt.Sprintf("setup%d", i))
		start, cpu := time.Now(), processCPU()
		store, _, err := setupCampaign(shape, filepath.Join(b.scratch, "setup.db"), vfs.OS{})
		if err != nil {
			return err
		}
		s, err := startServer(dir, nil)
		if err != nil {
			return errors.Join(err, store.Close())
		}
		c := &client{b: b, s: s, http: &http.Client{Timeout: time.Minute}}
		_, err = c.request("GET", "/healthz", nil)
		cpuS := (processCPU() - cpu).Seconds()
		b.wallSample("setup_s", time.Since(start).Seconds())
		c.http.CloseIdleConnections()
		if serr := s.stop(); err == nil {
			err = serr
		}
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		removeStore(filepath.Join(b.scratch, "setup.db"))
		if err != nil {
			return err
		}
		next := b.probe()
		b.sampleCPU("setup_s", "s", cpuS, p, next)
		p = next
	}

	window := b.window
	if b.traced {
		window /= 2
	}
	plain, err := startServer(filepath.Join(b.scratch, "plain"), nil)
	if err != nil {
		return err
	}
	warm := &client{b: b, s: plain, http: &http.Client{Timeout: time.Minute}}
	if _, err := warm.campaign("warmup", serveExperiments/10); err != nil {
		return errors.Join(err, plain.stop())
	}
	warm.http.CloseIdleConnections()
	plain.reports.take() // the warm-up's reports are not timed
	stopPeaks := peakWindows(time.Second)
	untraced, untracedCPU, err := b.serveSlices(plain, window)
	for _, mb := range stopPeaks() {
		b.sample("peak_rss_mb", mb)
	}
	if serr := plain.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	b.checkServed(plain.dir, untraced)
	if !b.traced {
		return nil
	}

	counted, err := startServer(filepath.Join(b.scratch, "traced"), &countingFS{FS: vfs.OS{}})
	if err != nil {
		return err
	}
	traced, tracedCPU, err := b.servePhase(counted, "t", time.Now().Add(window), true)
	if serr := counted.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	b.checkServed(counted.dir, traced)
	b.serveLayers(counted, traced)
	b.overhead([]float64{servedExperiments(untraced) / untracedCPU}, []float64{servedExperiments(traced) / tracedCPU})
	return nil
}

// peakWindows starts taking the peak resident set of every interval of
// length every. Both tenants' campaigns and reports overlap at random, so a
// whole window's single peak depends on how they happened to line up; the
// median of many short windows' peaks does not. The returned function stops
// the sampler, waits for it and returns one peak per whole interval.
func peakWindows(every time.Duration) func() []float64 {
	runtime.GC()
	resetPeakRSS()
	var peaks []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return peaks
	}
}

// serveSlices runs the measured phase as serveSliceCount back-to-back
// slices, the calibration kernel running alone between them, so the CPU
// times of each slice are put at the reference speed by the host speed
// measured around it. Both tenants share the process, so experiments per
// CPU-second is one figure per slice: every experiment served over all the
// CPU time the slice took, the clients' and the reports' included. It
// returns each tenant's client with the campaigns of all slices, and the
// phase's CPU time as measured.
func (b *bench) serveSlices(s *server, window time.Duration) ([]*client, float64, error) {
	all := make([]*client, serveTenants)
	var cpuS float64
	p := b.probe()
	// Slice deadlines are fixed from the start, so a slice that overran
	// shortens the next one instead of lengthening the run.
	begin := time.Now()
	for i := 0; i < serveSliceCount; i++ {
		deadline := begin.Add(window * time.Duration(i+1) / serveSliceCount)
		clients, sliceCPU, err := b.servePhase(s, fmt.Sprintf("u%d", i), deadline, false)
		next := b.probe()
		for t, c := range clients {
			if all[t] == nil {
				all[t] = c
				continue
			}
			all[t].runs = append(all[t].runs, c.runs...)
			all[t].reportMs = append(all[t].reportMs, c.reportMs...)
		}
		if err != nil {
			return all, cpuS, err
		}
		cpuS += sliceCPU
		b.sampleCPU("exp_per_ref_cpu_s", "1/s", servedExperiments(clients)/sliceCPU, p, next)
		for _, ms := range s.reports.take() {
			b.sampleCPU("report_cpu_ms", "ms", ms, p, next)
		}
		p = next
	}
	for _, c := range all {
		for _, sv := range c.runs {
			b.wallSample("exp_per_s", serveExperiments/sv.submitToDoS)
			b.wallSample("submit_to_done_s", sv.submitToDoS)
		}
		for _, ms := range c.reportMs {
			b.wallSample("report_ms", ms)
		}
	}
	return all, cpuS, nil
}

// servedExperiments counts the experiments of every campaign the clients ran.
func servedExperiments(clients []*client) float64 {
	n := 0
	for _, c := range clients {
		n += len(c.runs) * serveExperiments
	}
	return float64(n)
}

func storePath(dir string, tenant int, name string) string {
	return filepath.Join(dir, tenantName(tenant), name+".db")
}

// checkServed applies the correctness gate to every campaign the tenants
// ran: the store holds N+1 rows, none failed, its rows digest matches every
// other campaign of the tenant's seed, and every report the service gave
// equals the benchmark's own analysis.Classify over that tenant's rows.
func (b *bench) checkServed(dir string, clients []*client) {
	for _, c := range clients {
		var want analysis.Report
		for i, sv := range c.runs {
			b.ops.add(serveExperiments, 0, nil)
			store, err := dbase.OpenStore(storePath(dir, sv.tenant, sv.name))
			if err != nil {
				b.ops.check(false, "reopen %s: %v", sv.name, err)
				continue
			}
			rows, err := store.Experiments(sv.name)
			var chk rowCheck
			if err == nil {
				chk, err = checkRows(sv.name, rows)
			}
			if err == nil && i == 0 {
				want, err = analysis.Classify(store, sv.name)
				want = jsonRoundTrip(want)
			}
			store.Close()
			if err != nil {
				b.ops.check(false, "read back %s: %v", sv.name, err)
				continue
			}
			b.ops.add(0, chk.failed, nil)
			b.ops.check(chk.failed == 0, "%s: %d failed rows", sv.name, chk.failed)
			b.ops.check(chk.rows == serveExperiments+1, "%s: store holds %d rows, want %d", sv.name, chk.rows, serveExperiments+1)
			b.checkDigest(fmt.Sprintf("%s-%s", b.workload, tenantName(sv.tenant)), chk.digest)
			b.servedCycles = append(b.servedCycles, float64(chk.cycles))
			for _, rep := range sv.reports {
				b.ops.check(rep.Total == serveExperiments, "%s: report total %d, want %d", sv.name, rep.Total, serveExperiments)
				w := want
				w.Campaign = sv.name
				b.ops.check(reflect.DeepEqual(rep, w), "%s: report differs from own classification", sv.name)
			}
		}
	}
}

// jsonRoundTrip gives a report the form a client decodes from the wire, so
// it compares equal to one. Report holds only plain fields; encoding it
// cannot fail.
func jsonRoundTrip(r analysis.Report) analysis.Report {
	var out analysis.Report
	raw, _ := json.Marshal(r)
	_ = json.Unmarshal(raw, &out)
	return out
}

// serveLayers turns the traced phase into per-layer metrics and replays the
// report path on each tenant's first traced store.
func (b *bench) serveLayers(s *server, traced []*client) {
	var submit, status, report, queue, events, dropped, puts, putS, putP50, putP99 []float64
	campaigns := 0
	for _, c := range traced {
		submit = append(submit, c.submitMs...)
		status = append(status, c.statusMs...)
		report = append(report, c.reportMs...)
		for _, sv := range c.runs {
			campaigns++
			queue = append(queue, sv.queueWaitS)
			events = append(events, float64(sv.traceEvents))
			dropped = append(dropped, sv.dropped)
			puts = append(puts, float64(sv.puts))
			putS = append(putS, float64(sv.putNs)/1e9)
			putP50 = append(putP50, float64(sv.putP50Ns)/1e6)
			putP99 = append(putP99, float64(sv.putP99Ns)/1e6)
		}
	}
	b.layers["http.submit_ms_p50"] = median(submit)
	b.layers["http.status_ms_p50"] = median(status)
	b.layers["http.report_ms_p50"] = median(report)
	b.layers["service.queue_wait_s"] = median(queue)
	b.layers["obsv.trace_events"] = median(events)
	b.layers["obsv.trace_dropped"] = median(dropped)
	b.layers["thor.cycles"] = median(b.servedCycles)
	b.layers["dbase.put_calls"] = median(puts)
	b.layers["dbase.rows_per_put"] = ratio(serveExperiments+1, median(puts))
	b.layers["dbase.put_s"] = median(putS)
	b.layers["dbase.put_ms_p50"] = median(putP50)
	b.layers["dbase.put_ms_tail"] = median(putP99)
	rows := float64(campaigns * (serveExperiments + 1))
	syncs := float64(s.cfs.syncs.Load())
	b.layers["vfs.syncs"] = ratio(syncs, float64(campaigns))
	b.layers["vfs.sync_s"] = ratio(float64(s.cfs.syncNs.Load())/1e9, float64(campaigns))
	b.layers["vfs.rows_per_sync"] = ratio(rows, syncs)
	b.layers["vfs.bytes_per_row"] = ratio(float64(s.cfs.written.Load()), rows)

	var expS, classS, putAS, allocs []float64
	for _, c := range traced {
		if len(c.runs) == 0 {
			continue
		}
		sv := c.runs[0]
		r, err := replayReport(storePath(s.dir, sv.tenant, sv.name), sv.name)
		if err != nil {
			b.ops.check(false, "replay %s: %v", sv.name, err)
			continue
		}
		b.ops.check(r.total == serveExperiments, "replay %s: total %d", sv.name, r.total)
		expS = append(expS, r.experimentsS)
		classS = append(classS, r.classifyS)
		putAS = append(putAS, r.putAnalysisS)
		allocs = append(allocs, r.allocsPerRow)
	}
	b.layers["dbase.experiments_s"] = median(expS)
	b.layers["analysis.classify_s"] = median(classS)
	b.layers["analysis.put_analysis_s"] = median(putAS)
	b.layers["analysis.allocs_per_row"] = median(allocs)
}

// replayed is one single-threaded replay of the report path.
type replayed struct {
	total                                 int
	experimentsS, classifyS, putAnalysisS float64
	allocsPerRow                          float64
}

// replayReport repeats what GET /report does on a finished campaign's store,
// one layer at a time: open and read the rows, classify them (allocations
// counted exactly from the runtime's malloc counter), and separately store
// the classification rows into a freshly opened copy.
func replayReport(path, campaign string) (replayed, error) {
	var r replayed
	store, err := dbase.OpenStore(path)
	if err != nil {
		return r, err
	}
	defer store.Close()
	start := time.Now()
	rows, err := store.Experiments(campaign)
	if err != nil {
		return r, err
	}
	r.experimentsS = time.Since(start).Seconds()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	rep, err := analysis.Classify(store, campaign)
	r.classifyS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, err
	}
	r.total = rep.Total
	r.allocsPerRow = ratio(float64(after.Mallocs-before.Mallocs), float64(len(rows)))

	results, err := store.AnalysisResults(campaign)
	if err != nil {
		return r, err
	}
	fresh, err := dbase.OpenStore(path)
	if err != nil {
		return r, err
	}
	defer fresh.Close()
	start = time.Now()
	err = fresh.PutAnalysis(results)
	r.putAnalysisS = time.Since(start).Seconds()
	return r, err
}
