package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
)

// read_storm input: a synthetic fixture of stormVPs × stormLinks × 2
// sides over stormDays days, served lazily by stormReplicas replicas
// behind one front. The catalog holds about a hundred distinct reads,
// well under readcache.DefaultMaxEntries, so after warm-up nearly every
// read is a cache hit.
const (
	stormVPs      = 4
	stormLinks    = 16
	stormDays     = 30
	stormReplicas = 2
	// stormRate is the open-loop offered rate in reads per second, low
	// enough that a 2-core machine serves it without a backlog.
	stormRate = 300.0
	// dashDays is the dashboard pages' window.
	dashDays = 3
)

// stormEnv is one set-up read_storm: the replicas, the front, the read
// sequence and the reference bodies.
type stormEnv struct {
	dbs      []*tsdb.DB
	servers  []*api.Server
	replicas []*listener
	front    *api.Front
	frontL   *listener
	seq      []request
	ref      map[string][]byte
}

func (e *stormEnv) close() {
	if e.frontL != nil {
		e.frontL.close()
	}
	for _, l := range e.replicas {
		l.close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

func (e *stormEnv) replicaURLs() []string {
	var out []string
	for _, l := range e.replicas {
		out = append(out, l.URL)
	}
	return out
}

// setupReadStorm fills and snapshots the fixture, opens it lazily on
// every replica, starts the front, and warms every cache by reading
// each distinct request directly from each replica and through the
// front. The first replica's bodies are the reference.
func (b *bench) setupReadStorm(ctx context.Context) (*stormEnv, error) {
	f := newFixture(b.cfg.seed, stormVPs, stormLinks, stormDays)
	rng := rand.New(rand.NewSource(int64(b.cfg.seed)))
	all := window{from: netsim.Epoch, days: stormDays}
	cat := f.catalog(all, all, all, dashDays, all)
	e := &stormEnv{seq: mix(rng, cat, 20000), ref: map[string][]byte{}}

	dir, err := b.mkdir("read_storm")
	if err != nil {
		return nil, err
	}
	leader := tsdb.Open()
	f.fill(leader)
	if _, err := leader.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		return nil, err
	}
	for i := 0; i < stormReplicas; i++ {
		db := tsdb.Open()
		if err := db.RestoreDir(dir, tsdb.DirOptions{Lazy: true}); err != nil {
			e.close()
			return nil, err
		}
		srv := api.New(db)
		l, err := serve(srv)
		if err != nil {
			srv.Close()
			e.close()
			return nil, err
		}
		e.dbs, e.servers, e.replicas = append(e.dbs, db), append(e.servers, srv), append(e.replicas, l)
	}
	if e.front, err = api.NewFront(e.replicaURLs(), api.FrontOptions{}); err != nil {
		e.close()
		return nil, err
	}
	e.front.PollNow(ctx)
	if e.frontL, err = serve(e.front); err != nil {
		e.close()
		return nil, err
	}

	c := newClient()
	defer c.close()
	for _, r := range distinct(e.seq) {
		ref, err := c.getOK(ctx, e.replicas[0].URL+r.path)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("reference read: %w", err)
		}
		e.ref[r.path] = bytes.Clone(ref.body)
		for _, base := range append(e.replicaURLs()[1:], e.frontL.URL) {
			got, err := c.getOK(ctx, base+r.path)
			ok := err == nil && bytes.Equal(got.body, e.ref[r.path])
			if !ok {
				b.logf("CHECK FAILED: warm-up read %s from %s differs from the reference (err=%v)", r.path, base, err)
			}
			b.led.check(ok)
		}
	}
	return e, nil
}

// reader returns the doFunc that reads seq[i] from base, inside a
// span called name when tr is not nil, and checks the body against the
// reference.
func (b *bench) reader(ctx context.Context, e *stormEnv, tr *tracer, name, base string) doFunc {
	return func(c *client, i int) (int64, bool) {
		r := e.seq[i]
		var resp response
		var err error
		tr.timed(tr.newTrace(), 0, name, func(int) { resp, err = c.get(ctx, base+r.path) })
		ok := err == nil && resp.status == 200 && bytes.Equal(resp.body, e.ref[r.path])
		b.led.op(ok)
		if !ok {
			b.logf("read failed: %s%s: err=%v status=%d", base, r.path, err, resp.status)
		}
		return resp.wire, ok
	}
}

func runReadStorm(ctx context.Context, b *bench) error {
	// The phase is split over setupRuns set-ups, as in live_tail, so
	// one environment's luck does not decide the result.
	openN := int(stormRate * b.phase() / 2 / setupRuns)
	closedFor := b.seconds() / 2 / setupRuns
	b.logf("read_storm: fixture %d VPs x %d links x 2 sides x %d days, %d lazy replicas behind one front; on each of %d set-ups open loop %g reads/s for %d reads, then closed loop on %d connections for %.1fs",
		stormVPs, stormLinks, stormDays, stormReplicas, setupRuns, stormRate, openN, b.nproc, closedFor.Seconds())
	var open, closed []sample
	var rates []float64
	var el time.Duration
	var setups []float64
	var e *stormEnv
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		t0 := time.Now()
		env, err := b.setupReadStorm(ctx)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e = env
		setups = append(setups, time.Since(t0).Seconds())
		cs := clients(b.nproc)
		do := b.reader(ctx, e, nil, "front.read", e.frontL.URL)
		open = append(open, openLoop(cs, openN, stormRate, do)...)
		c, d := closedLoop(cs, closedFor, len(e.seq), do)
		closeClients(cs)
		closed, el = append(closed, c...), el+d
		rates = append(rates, windowRates(c, closedFor)...)
	}
	b.recordSetups(setups)
	b.logf("read_storm: %d distinct requests in the mix (read cache holds %d)", len(e.ref), readcache.DefaultMaxEntries)
	lat := summarize(column(open, func(s sample) float64 { return s.latMs }), 99)
	late := summarize(column(open, func(s sample) float64 { return s.lateMs }), 99)
	rps := median(rates)

	b.addE2E("live_heap_mb", "MiB", liveHeapMB(e), "")
	b.addE2E("throughput_per_s", "1/s", rps, fmt.Sprintf("(read_rps: %d closed-loop reads on %d connections in %.2fs)", len(closed), b.nproc, el.Seconds()))
	b.addE2E("latency_p50_ms", "ms", lat.P50, fmt.Sprintf("(read_p50_ms; read latency from due time at %g reads/s: %s)", stormRate, lat))
	b.logf("read_storm: read_wire_kb %.3f KiB (open loop, n=%d); generator lateness %s ms", meanWireKB(open), len(open), late)

	if !b.cfg.trace {
		return nil
	}
	return b.traceReadStorm(ctx, e, rps)
}

// layerCounters are the cumulative counters the traced run diffs.
type layerCounters struct {
	lazy  tsdb.LazyStats
	cache readcache.Stats
	det   api.DetectorStats
	front api.FrontStats
}

// readCounters sums the replicas' lazy-read, read-cache and detector
// counters and reads the front's routing block.
func readCounters(ctx context.Context, c *client, dbs []*tsdb.DB, replicas []string, front string) (layerCounters, error) {
	var out layerCounters
	for _, db := range dbs {
		ls, _ := db.LazyReadStats()
		out.lazy.BlocksScanned += ls.BlocksScanned
		out.lazy.BlocksSkipped += ls.BlocksSkipped
		out.lazy.BlocksDecoded += ls.BlocksDecoded
		out.lazy.DecodedBytes += ls.DecodedBytes
		out.lazy.CacheHits += ls.CacheHits
		out.lazy.CacheEvictions += ls.CacheEvictions
		out.lazy.SegmentsOpened += ls.SegmentsOpened
	}
	for _, u := range replicas {
		var st api.StatsResponse
		if err := getJSON(ctx, c, u+"/api/v1/stats", &st); err != nil {
			return out, err
		}
		out.cache.Hits += st.Cache.Hits
		out.cache.Misses += st.Cache.Misses
		out.cache.Coalesced += st.Cache.Coalesced
		out.cache.StaleServes += st.Cache.StaleServes
		out.cache.BackgroundRefreshes += st.Cache.BackgroundRefreshes
		out.cache.Evictions += st.Cache.Evictions
		out.det.Folds += st.Detector.Folds
		out.det.PointsFolded += st.Detector.PointsFolded
		out.det.FullRecomputes += st.Detector.FullRecomputes
	}
	var fs struct {
		Front api.FrontStats `json:"front"`
	}
	if err := getJSON(ctx, c, front+"/api/v1/stats", &fs); err != nil {
		return out, err
	}
	out.front = fs.Front
	return out, nil
}

func getJSON(ctx context.Context, c *client, url string, v any) error {
	r, err := c.getOK(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(r.body, v)
}

// addCounterLayers reports the counter deltas between two samples.
func (b *bench) addCounterLayers(before, after layerCounters) {
	d := func(a, z uint64) float64 { return float64(z - a) }
	l0, l1 := before.lazy, after.lazy
	b.addLayer("tsdb.blocks_decoded", "count", d(l0.BlocksDecoded, l1.BlocksDecoded))
	b.addLayer("tsdb.decoded_bytes", "B", d(l0.DecodedBytes, l1.DecodedBytes))
	b.addLayer("tsdb.block_skip_ratio", "ratio", ratio(d(l0.BlocksSkipped, l1.BlocksSkipped), d(l0.BlocksScanned, l1.BlocksScanned)))
	hits := d(l0.CacheHits, l1.CacheHits)
	b.addLayer("tsdb.block_cache_hit_ratio", "ratio", ratio(hits, hits+d(l0.BlocksDecoded, l1.BlocksDecoded)))
	b.addLayer("tsdb.block_cache_evictions", "count", d(l0.CacheEvictions, l1.CacheEvictions))
	b.addLayer("tsdb.segments_opened", "count", d(l0.SegmentsOpened, l1.SegmentsOpened))

	a0, a1 := before.det, after.det
	b.addLayer("analysis.folds", "count", d(a0.Folds, a1.Folds))
	b.addLayer("analysis.points_folded", "count", d(a0.PointsFolded, a1.PointsFolded))
	b.addLayer("analysis.full_recomputes", "count", d(a0.FullRecomputes, a1.FullRecomputes))

	c0, c1 := before.cache, after.cache
	ch := d(c0.Hits, c1.Hits)
	b.addLayer("readcache.hit_ratio", "ratio", ratio(ch, ch+d(c0.Misses, c1.Misses)))
	b.addLayer("readcache.coalesced", "count", d(c0.Coalesced, c1.Coalesced))
	b.addLayer("readcache.stale_serves", "count", d(c0.StaleServes, c1.StaleServes))
	b.addLayer("readcache.background_refreshes", "count", d(c0.BackgroundRefreshes, c1.BackgroundRefreshes))
	b.addLayer("readcache.evictions", "count", d(c0.Evictions, c1.Evictions))

	var hedged, retried float64
	for i, r := range after.front.Replicas {
		if i < len(before.front.Replicas) {
			hedged += d(before.front.Replicas[i].Hedged, r.Hedged)
			retried += d(before.front.Replicas[i].Retried, r.Retried)
		}
	}
	b.addLayer("front.hedged", "count", hedged)
	b.addLayer("front.retried", "count", retried)
	b.addLayer("front.unavailable", "count", d(before.front.Unavailable, after.front.Unavailable))
}

// traceReadStorm repeats the open and closed loops with spans. Each
// open-loop read is also issued straight to a replica, which splits its
// time between the api replica and the front; a closed loop straight to
// one replica gives direct_rps.
func (b *bench) traceReadStorm(ctx context.Context, e *stormEnv, untracedRPS float64) error {
	tr := newTracer()
	c := newClient()
	defer c.close()
	before, err := readCounters(ctx, c, e.dbs, e.replicaURLs(), e.frontL.URL)
	if err != nil {
		return err
	}

	cs := clients(b.nproc)
	defer closeClients(cs)
	type split struct{ frontMs, directMs, bodyKB float64 }
	openN := int(stormRate * b.phase() / 2)
	splits := make([]split, openN)
	traced := func(c *client, i int) (int64, bool) {
		r := e.seq[i]
		trace := tr.newTrace()
		t0 := time.Now()
		var resp response
		var err error
		tr.timed(trace, 0, "front.read", func(int) { resp, err = c.get(ctx, e.frontL.URL+r.path) })
		frontMs := msSince(t0)
		ok := err == nil && resp.status == 200 && bytes.Equal(resp.body, e.ref[r.path])
		b.led.op(ok)
		t0 = time.Now()
		var direct response
		tr.timed(trace, 0, "api.direct", func(int) {
			direct, err = c.get(ctx, e.replicas[i%len(e.replicas)].URL+r.path)
		})
		dok := err == nil && direct.status == 200 && bytes.Equal(direct.body, e.ref[r.path])
		b.led.op(dok)
		splits[i] = split{frontMs: frontMs, directMs: msSince(t0), bodyKB: float64(len(direct.body)) / 1024}
		return resp.wire, ok
	}
	open := openLoop(cs, openN, stormRate, traced)
	closed, _ := closedLoop(cs, b.seconds()/2, len(e.seq),
		b.reader(ctx, e, tr, "front.read", e.frontL.URL))
	tracedRPS := medianRate(closed, b.seconds()/2)
	direct, _ := closedLoop(cs, b.seconds()/2, len(e.seq),
		b.reader(ctx, e, tr, "api.direct", e.replicas[0].URL))
	directRPS := medianRate(direct, b.seconds()/2)
	var pollMs []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		tr.timed(tr.newTrace(), 0, "front.PollNow", func(int) { e.front.PollNow(ctx) })
		pollMs = append(pollMs, msSince(t0))
	}
	after, err := readCounters(ctx, c, e.dbs, e.replicaURLs(), e.frontL.URL)
	if err != nil {
		return err
	}

	var selfMs []float64
	var byClass [numClasses][]float64
	var kbByClass [numClasses][]float64
	for i, s := range splits {
		cl := e.seq[i].class
		byClass[cl] = append(byClass[cl], s.directMs)
		kbByClass[cl] = append(kbByClass[cl], s.bodyKB)
		selfMs = append(selfMs, s.frontMs-s.directMs)
	}
	b.addCounterLayers(before, after)
	for cl := 0; cl < numClasses; cl++ {
		s := summarize(byClass[cl], 99)
		b.addLayer("api.direct_ms_p50."+classNames[cl], "ms", s.P50)
		b.addLayer("api.direct_ms_p99."+classNames[cl], "ms", s.Tail)
		b.addLayer("api.body_kb."+classNames[cl], "KiB", median(kbByClass[cl]))
		b.logf("  api direct %-10s %s ms, body %.1f KiB", classNames[cl], s, median(kbByClass[cl]))
	}
	b.addLayer("direct_rps", "1/s", directRPS)
	b.addLayer("front.self_ms_p50", "ms", median(selfMs))
	b.addLayer("front_efficiency", "ratio", ratio(untracedRPS, directRPS))
	b.addLayer("front.poll_ms", "ms", median(pollMs))
	b.addLayer("read_wire_kb", "KiB", meanWireKB(open))
	b.addLayer("gen.late_ms_p99", "ms", summarize(column(open, func(s sample) float64 { return s.lateMs }), 99).Tail)
	b.addLayer("trace.overhead_ratio", "ratio", ratio(untracedRPS, tracedRPS))
	b.logf("read_storm traced: read_rps %.1f untraced, %.1f traced; direct_rps %.1f; front_efficiency %.3f (read_rps ÷ direct_rps)",
		untracedRPS, tracedRPS, directRPS, ratio(untracedRPS, directRPS))
	return b.finishTrace(tr)
}
