package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSummarizePercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50      float64
		tail     float64
		tailPct  float64
		beyondOK bool
	}{
		// 999 samples: p99 would leave nine above it, so the tail steps
		// down to rank 989.
		{n: 999, p50: 500, tail: 989, tailPct: 100 * 989.0 / 999, beyondOK: true},
		// 2000 samples: p99 leaves twenty above it and is read over all
		// of them.
		{n: 2000, p50: 1000, tail: 1980, tailPct: 99, beyondOK: true},
		// 100 samples: p99 would leave one above it; p90 leaves ten.
		{n: 100, p50: 50, tail: 90, tailPct: 90, beyondOK: true},
		// 15 samples: no percentile above the median leaves ten above
		// it, so the tail falls back to the median.
		{n: 15, p50: 8, tail: 8, tailPct: 100 * 8.0 / 15},
	} {
		s := summarize(seq(tc.n), 99)
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailPct != tc.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", tc.n, s, tc.p50, tc.tail, tc.tailPct)
		}
		if tc.beyondOK {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
		if !strings.Contains(s.String(), "n=") {
			t.Errorf("summary %q does not print its sample count", s)
		}
	}
	if s := summarize(nil, 99); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// TestOpenLoopTimesFromDueTime stalls the first request of an open loop
// on a single connection: every request queued behind it must carry the
// stall in its latency, because latency runs from the due time, not
// from when a connection became free.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	l, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	cs := clients(1)
	defer closeClients(cs)

	const rate, n = 100.0, 20 // one request due every 10ms
	ss := openLoop(cs, n, rate, func(c *client, i int) (int64, bool) {
		r, err := c.get(context.Background(), l.URL)
		return r.wire, err == nil && r.status == 200
	})
	for i, s := range ss {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		due := time.Duration(float64(i) / rate * float64(time.Second))
		// Every request due before the stall ended waits for it.
		if due < stall-20*time.Millisecond {
			if want := float64(stall-due) / float64(time.Millisecond); s.latMs < want-5 {
				t.Errorf("request %d due at %v: latency %.1fms, want at least %.1fms", i, due, s.latMs, want-5)
			}
		}
	}
	// The scheduler itself never waited for the stalled connection.
	late := summarize(column(ss, func(s sample) float64 { return s.lateMs }), 99)
	if late.Tail > float64(stall/time.Millisecond)/2 {
		t.Errorf("generator ran %.1fms late: it blocked on the stalled request", late.Tail)
	}
	// The untouched requests after the stall are fast again.
	if last := ss[n-1].latMs; last > float64(stall/time.Millisecond) {
		t.Errorf("last request latency %.1fms: the queue never drained", last)
	}
}

func TestLedgerFailedRatio(t *testing.T) {
	var l ledger
	for i := 0; i < 6; i++ {
		l.op(true)
	}
	l.op(false)   // a non-2xx or transport error
	l.check(true) // a passing correctness check is an attempted operation
	l.check(false)
	if got, want := l.attempted.Load(), int64(9); got != want {
		t.Errorf("attempted = %d, want %d", got, want)
	}
	if got, want := l.failed.Load(), int64(2); got != want {
		t.Errorf("failed = %d, want %d", got, want)
	}
	if got := l.checksFailed.Load(); got != 1 {
		t.Errorf("checks failed = %d, want 1", got)
	}
	if got, want := l.failedRatio(), 2.0/9; got != want {
		t.Errorf("failed_ratio = %v, want %v", got, want)
	}
	var empty ledger
	if empty.failedRatio() != 0 {
		t.Errorf("failed_ratio of nothing attempted = %v, want 0", empty.failedRatio())
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.tick", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tsdb.SnapshotDir", Start: 10, End: 40},
		// Two overlapping children: their union, not their sum, is
		// subtracted from the parent.
		{ID: 3, Parent: 1, Name: "front.read", Start: 50, End: 80},
		{ID: 4, Parent: 1, Name: "front.read", Start: 70, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]float64{"harness": 30e-9, "tsdb": 30e-9, "front": 50e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestUnknownWorkloadFailsWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--work-dir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("printed a result for a failed run: %s", out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	same := func(kind string, decl []metricDecl, got []struct{ Name, Unit string }) {
		if len(decl) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(decl))
			return
		}
		for i, d := range decl {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
}

// TestSmoke runs each workload briefly, traced, so both the untraced
// and the traced paths execute their correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range sortedKeys(workloads) {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), config{
				workload: w, seed: 7, seconds: 1, trace: true, spanDir: dir, workDir: dir,
			}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
			if res.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("trace.overhead_ratio not measured")
			}
			if _, err := os.Stat(dir + "/spans-" + w + "-seed7.jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
