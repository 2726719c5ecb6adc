package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"goofi/internal/dbase"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, pct, beyond := tail(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail of 1..100 = %v (p%v, %d beyond), want 90 (p90, 10 beyond)", v, pct, beyond)
	}
	for n := 2 * tailBeyond; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, _, _ := tail(xs)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != tailBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want exactly %d", n, above, tailBeyond)
		}
	}
	few := []float64{3, 1, 2, 7, 5, 4, 6, 9, 8, 10, 12, 11, 13, 14, 15, 16, 17, 18, 19}
	if v, pct, beyond := tail(few); v != 19 || pct != 100 || beyond != 0 {
		t.Fatalf("tail of %d samples = %v (p%v, %d beyond), want the maximum", len(few), v, pct, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 20, end: 50},
		{start: 10, end: 30}, // overlaps the first
		{start: 60, end: 70},
		{start: 65, end: 68},   // nested in the third
		{start: 95, end: 120},  // runs past the parent
		{start: 130, end: 140}, // outside the parent
	}
	// Covered: [10,50] + [60,70] + [95,100] = 40 + 10 + 5.
	if got := selfTime(parent, children); got != 45 {
		t.Fatalf("self time = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

// spin burns at least d of the calling thread's CPU time.
func spin(d time.Duration) {
	for start := threadCPU(); threadCPU()-start < d; {
	}
}

func TestCPUClocksCountWorkNotWaiting(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := processCPU(), threadCPU()
	spin(20 * time.Millisecond)
	if d := processCPU() - p0; d < 20*time.Millisecond {
		t.Fatalf("process CPU advanced %v over 20ms of work on one thread", d)
	}
	t1 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if d := threadCPU() - t1; d > 10*time.Millisecond {
		t.Fatalf("thread CPU advanced %v while the thread slept", d)
	}
	if t1-t0 < 20*time.Millisecond {
		t.Fatalf("thread CPU advanced %v over 20ms of work", t1-t0)
	}
}

func TestSampleCPUAtReferenceSpeed(t *testing.T) {
	// The kernel took twice its nominal time around each sample: the host
	// ran at half the reference speed, so at the reference CPU times halve
	// and rates double. Memory is not scaled.
	slow := 2 * probeNominal.Seconds()
	b := &bench{samples: map[string][]float64{}, cpu: map[string][]float64{}}
	for _, c := range []struct {
		name, unit string
		v, want    float64
	}{{"setup_s", "s", 0.04, 0.02}, {"report_cpu_ms", "ms", 300, 150}, {"exp_per_ref_cpu_s", "1/s", 1000, 2000}} {
		b.sampleCPU(c.name, c.unit, c.v, slow*0.9, slow*1.1) // the mean of before and after counts
		if got := b.samples[c.name][0]; math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: %v %s at the reference = %v, want %v", c.name, c.v, c.unit, got, c.want)
		}
		if got := b.cpu[c.name][0]; got != c.v {
			t.Errorf("%s: kept %v as measured, want %v", c.name, got, c.v)
		}
	}
	if got := atReference(110, "MB", slow); got != 110 {
		t.Errorf("memory scaled to %v", got)
	}
}

func TestReportTimerTimesOnlyReports(t *testing.T) {
	rt := &reportTimer{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spin(5 * time.Millisecond)
		time.Sleep(20 * time.Millisecond) // waiting is not the report's CPU time
		w.Write([]byte("{}"))
	})}
	ts := httptest.NewServer(rt)
	defer ts.Close()
	for _, r := range []struct{ method, path string }{
		{"GET", "/campaigns/t0/c/report"},
		{"GET", "/campaigns/t0/c"},
		{"DELETE", "/campaigns/t0/c/report"},
		{"GET", "/campaigns/t1/c/report"},
	} {
		req, _ := http.NewRequest(r.method, ts.URL+r.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	ms := rt.take()
	if len(ms) != 2 {
		t.Fatalf("timed %d requests, want the 2 GET …/report", len(ms))
	}
	for _, v := range ms {
		if v < 5 || v > 20 {
			t.Fatalf("report CPU time %v ms, want at least the 5 ms of work and less than the 25 ms on the wall clock", v)
		}
	}
	if len(rt.take()) != 0 {
		t.Fatal("take did not start afresh")
	}
}

func TestErrorRateCountsRefusedRequests(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/busy" {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer ok.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close() // nothing listens there any more: connections are refused

	var o opCounter
	c := &http.Client{}
	for _, url := range []string{ok.URL + "/", ok.URL + "/busy", closed + "/"} {
		req, _ := http.NewRequest("GET", url, nil)
		o.do(c, req)
	}
	o.check(true, "fine")
	o.check(false, "mismatch")
	if o.attempted != 5 || o.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", o.attempted, o.failed)
	}
	if r := o.errorRate(); r != 0.6 {
		t.Fatalf("error rate = %v, want 0.6", r)
	}
}

func TestRowsDigestFollowsPlanOrder(t *testing.T) {
	rows := []dbase.ExperimentRow{
		{ExperimentName: "c/e10000", TerminationReason: "b"},
		{ExperimentName: "c/ref", TerminationReason: "r"},
		{ExperimentName: "c/e9999", TerminationReason: "a"},
	}
	a, err := checkRows("c", rows)
	if err != nil {
		t.Fatal(err)
	}
	renamed := []dbase.ExperimentRow{
		{ExperimentName: "d/e9999", TerminationReason: "a"},
		{ExperimentName: "d/ref", TerminationReason: "r"},
		{ExperimentName: "d/e10000", TerminationReason: "b"},
	}
	b, err := checkRows("d", renamed)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.rows != 3 {
		t.Fatalf("digest depends on row order or campaign name: %+v vs %+v", a, b)
	}
	rows[0].TerminationReason = "x"
	if c, _ := checkRows("c", rows); c.digest == a.digest {
		t.Fatal("digest ignores row content")
	}
	if _, err := checkRows("c", []dbase.ExperimentRow{{ExperimentName: "other/e1"}}); err == nil {
		t.Fatal("a foreign row was accepted")
	}
}

// At small N, the fork-late shape must leave exactly the rows the plain
// engine leaves, and tracing must not change them either.
func TestForkLateDigestMatchesPlainEngine(t *testing.T) {
	dir := t.TempDir()
	forked := forkLate(7, 24)
	plain := forked
	plain.c.Fork = false
	f, err := runCampaign(forked, dir, "forked", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runCampaign(plain, dir, "plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runCampaign(forked, dir, "traced", tr)
	if err != nil {
		t.Fatal(err)
	}
	if f.check.rows != 25 || f.check.failed != 0 {
		t.Fatalf("forked campaign: %+v", f.check)
	}
	if f.check.digest != p.check.digest {
		t.Fatalf("forked digest %s != plain digest %s", f.check.digest, p.check.digest)
	}
	if traced.check.digest != f.check.digest {
		t.Fatalf("traced digest %s != untraced digest %s", traced.check.digest, f.check.digest)
	}
	calls, _ := tr.layerTotals()
	if calls[kindRestore] == 0 || tr.checkpointPeakBytes() == 0 {
		t.Fatalf("traced fork campaign recorded %d restores and %d checkpoint bytes", calls[kindRestore], tr.checkpointPeakBytes())
	}
}

func TestTracedWALCampaignKeepsRows(t *testing.T) {
	dir := t.TempDir()
	sh := scifiWAL(3, 40)
	plain, err := runCampaign(sh, dir, "plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runCampaign(sh, dir, "traced", newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if plain.check.digest != traced.check.digest || traced.check.rows != 41 {
		t.Fatalf("traced %+v, untraced %+v", traced.check, plain.check)
	}
	if calls, _ := traced.tr.layerTotals(); traced.syncs == 0 || calls[kindPut] == 0 {
		t.Fatalf("traced run counted %d syncs and %d puts", traced.syncs, calls[kindPut])
	}
}

// The metric tables printed by the command are the ones BENCHMARK.json
// declares, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got, want []metric
		for _, m := range tc.declared {
			want = append(want, metric{m.Name, m.Unit})
		}
		got = tc.printed
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("printed metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}
