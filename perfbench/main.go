// Command perfbench is the repository's pipeline benchmark. It drives
// one workload through the real pipeline (simulated probing, the
// time-series store, segment snapshots, delta replication, the serving
// replicas and the scatter front) from one process, times its own calls
// into each layer, checks the outputs, and prints every metric by name
// and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the program first):
//
//	bash perfbench/run.sh --workload campaign|read_storm|live_tail \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run records spans around every call into a layer, writes them to
// --span-dir, and the metrics are the per-layer ones. README.md in this
// directory explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 3

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spanDir receives the traced run's span file.
	spanDir string
	// workDir holds the run's segment directories; it is removed at
	// exit.
	workDir string
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count and percentile, where it applies
}

// bench is one run's shared state.
type bench struct {
	cfg   config
	nproc int
	out   io.Writer // human-readable report
	outMu sync.Mutex
	led   ledger
	e2e   []metric
	layer []metric
	dir   string
}

// phase is how long one measured phase runs, in seconds: the whole
// --seconds, or half of it in a traced run, which measures an untraced
// and a traced phase back to back.
func (b *bench) phase() float64 {
	if b.cfg.trace {
		return b.cfg.seconds / 2
	}
	return b.cfg.seconds
}

// seconds is phase as a duration.
func (b *bench) seconds() time.Duration {
	return time.Duration(b.phase() * float64(time.Second))
}

// logf writes one report line; reads on several goroutines may log
// failures at once.
func (b *bench) logf(format string, args ...any) {
	b.outMu.Lock()
	defer b.outMu.Unlock()
	fmt.Fprintf(b.out, format+"\n", args...)
}

// addE2E and addLayer record a metric of the untraced and the traced
// run.
func (b *bench) addE2E(name, unit string, v float64, note string) {
	b.e2e = append(b.e2e, metric{name, unit, v, note})
}

func (b *bench) addLayer(name, unit string, v float64) {
	b.layer = append(b.layer, metric{name: name, unit: unit, value: v})
}

// mkdir returns a fresh directory under the run's work directory.
func (b *bench) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix+"-*")
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"campaign":   runCampaign,
	"read_storm": runReadStorm,
	"live_tail":  runLiveTail,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "campaign, read_storm or live_tail")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.spanDir, "span-dir", filepath.Join(".bench_build", "perfbench"), "where the traced run writes its span file")
	fs.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "parent of the run's working directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	rep, err := runWorkload(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct || rep.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload and assembles its result: the
// end-to-end metrics, or with cfg.trace the per-layer ones.
func runWorkload(ctx context.Context, cfg config, out io.Writer) (result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want campaign, read_storm or live_tail)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, nproc: nproc, out: out, dir: dir}
	b.logf("perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, nproc, runtime.GOMAXPROCS(0))
	if err := drive(ctx, b); err != nil {
		return result{}, err
	}

	res := result{
		Correct:   b.led.checksFailed.Load() == 0,
		Attempted: b.led.attempted.Load(),
		Failed:    b.led.failed.Load(),
	}
	e2e, err := b.report("end-to-end (untraced)", endToEnd, b.e2e)
	if err != nil {
		return result{}, err
	}
	res.Metrics = e2e
	if cfg.trace {
		if res.Metrics, err = b.report("per-layer (traced)", perLayer, b.layer); err != nil {
			return result{}, err
		}
	}
	b.logf("operations: attempted %d, failed %d, failed_ratio %.6f",
		res.Attempted, res.Failed, b.led.failedRatio())
	return res, nil
}

// report prints the declared metrics with their notes and returns them
// for the result line. A declared metric the run did not produce is
// reported as measured: zero.
func (b *bench) report(title string, decls []metricDecl, got []metric) (map[string]metricValue, error) {
	byName := map[string]metric{}
	for _, m := range got {
		byName[m.name] = m
	}
	out := map[string]metricValue{}
	b.logf("%s metrics:", title)
	for _, d := range decls {
		m := byName[d.name]
		if m.name != "" && m.unit != d.unit {
			return nil, fmt.Errorf("metric %s reported in %s, declared in %s", d.name, m.unit, d.unit)
		}
		out[d.name] = metricValue{Value: m.value, Unit: d.unit}
		b.logf("  %-34s %14.4f %-6s %s", d.name, m.value, d.unit, m.note)
	}
	return out, nil
}

// metricDecl is one metric BENCHMARK.json declares.
type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. Each workload
// defines its unit of work: a virtual hour (campaign), a read
// (read_storm) or a write-to-visible tick (live_tail).
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDecl{
	{"core.run_busy_s", "s"},
	{"netsim.events", "count"},
	{"netsim.events_per_busy_s", "1/s"},
	{"tsdb.points_written", "count"},
	{"tsdb.write_points_per_s", "1/s"},
	{"tsdb.snapshot_ms_p50", "ms"},
	{"tsdb.snapshot_ms_max", "ms"},
	{"tsdb.segments_written", "count"},
	{"tsdb.segments_reused", "count"},
	{"tsdb.compact_ms", "ms"},
	{"tsdb.bytes_per_point", "B"},
	{"replication.tail_ms_p50", "ms"},
	{"replication.tail_ms_p99", "ms"},
	{"replication.bytes_per_point", "B"},
	{"replication.delta_hit_ratio", "ratio"},
	{"replication.delta_fallbacks", "count"},
	{"tsdb.blocks_decoded", "count"},
	{"tsdb.decoded_bytes", "B"},
	{"tsdb.block_skip_ratio", "ratio"},
	{"tsdb.block_cache_hit_ratio", "ratio"},
	{"tsdb.block_cache_evictions", "count"},
	{"tsdb.segments_opened", "count"},
	{"analysis.folds", "count"},
	{"analysis.points_folded", "count"},
	{"analysis.full_recomputes", "count"},
	{"readcache.hit_ratio", "ratio"},
	{"readcache.coalesced", "count"},
	{"readcache.stale_serves", "count"},
	{"readcache.background_refreshes", "count"},
	{"readcache.evictions", "count"},
	{"api.direct_ms_p50.congestion", "ms"},
	{"api.direct_ms_p50.aggregate", "ms"},
	{"api.direct_ms_p50.raw", "ms"},
	{"api.direct_ms_p50.dashboard", "ms"},
	{"api.direct_ms_p99.congestion", "ms"},
	{"api.direct_ms_p99.aggregate", "ms"},
	{"api.direct_ms_p99.raw", "ms"},
	{"api.direct_ms_p99.dashboard", "ms"},
	{"api.body_kb.congestion", "KiB"},
	{"api.body_kb.aggregate", "KiB"},
	{"api.body_kb.raw", "KiB"},
	{"api.body_kb.dashboard", "KiB"},
	{"direct_rps", "1/s"},
	{"front.self_ms_p50", "ms"},
	{"front_efficiency", "ratio"},
	{"front.hedged", "count"},
	{"front.retried", "count"},
	{"front.unavailable", "count"},
	{"front.poll_ms", "ms"},
	{"read_wire_kb", "KiB"},
	{"freshness.read_ms_p50", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// recordSetups reports the median set-up time as setup_s.
func (b *bench) recordSetups(times []float64) {
	b.addE2E("setup_s", "s", median(times), fmt.Sprintf("(median of %d set-ups: %.3f)", len(times), times))
}

// liveHeapMB forces a collection while keep is still referenced and
// returns the live heap in MiB.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// finishTrace writes the span file and prints the per-layer self times.
func (b *bench) finishTrace(tr *tracer) error {
	path := filepath.Join(b.cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	spans := tr.snapshot()
	b.logf("spans: %d written to %s", len(spans), path)
	printSelfTimes(b.out, selfTimes(spans))
	return nil
}
