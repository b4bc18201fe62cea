package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// live_tail input: a leader holding tailVPs × tailLinks × 2 sides over
// tailDays days (about 1.2 million points, so a read mix over the whole
// range decodes more than tsdb.DefaultBlockCacheBytes), one lazy
// follower serving through one front, and ticks of one probe round each.
const (
	tailVPs   = 4
	tailLinks = 24
	tailDays  = 64
	// tailRate is the open-loop offered rate of the background reads.
	tailRate = 20.0
	// visibleWithin bounds how long a tick may take to become visible
	// at the front before it counts as a missed visibility.
	visibleWithin = 5 * time.Second
	// swrBudget is the replicas' stale-while-revalidate budget.
	swrBudget = time.Minute
	// tickFloor is the fastest tick the read window is sized for: the
	// mix reads a window that holds every tick a run of --seconds can
	// make at one tick per tickFloor, about 14 times faster than the
	// ticks measured when the benchmark was written. A run that fills
	// the window stops ticking.
	tickFloor   = 10 * time.Millisecond
	ticksPerDay = int(24 * time.Hour / round)
)

// spareDays is how many days past the fixture the read window reaches:
// enough for every tick of a run of seconds at one tick per tickFloor.
func spareDays(seconds float64) int {
	return int(math.Ceil(seconds / tickFloor.Seconds() / float64(ticksPerDay)))
}

// tailEnv is one set-up live_tail: leader, follower, replica and front.
type tailEnv struct {
	f        *fixture
	leader   *tsdb.DB
	ldir     string
	staged   *tsdb.Staged
	exporter *listener
	fdb      *tsdb.DB
	follower *replication.Follower
	server   *api.Server
	replica  *listener
	front    *api.Front
	frontL   *listener
	seq      []request
	// congestion holds each link's congestion request, for the final
	// batch/incremental equivalence check.
	congestion []request
	// next is the virtual time of the next tick's probe round.
	next  time.Time
	ticks int
	// maxTicks is how many ticks the read window holds.
	maxTicks int
	buf      []tsdb.BatchPoint
}

func (e *tailEnv) close() {
	for _, l := range []*listener{e.frontL, e.replica, e.exporter} {
		if l != nil {
			l.close()
		}
	}
	if e.server != nil {
		e.server.Close()
	}
}

// replicationHealth reports the follower's position to the replica's
// health endpoint, which the front routes by.
func replicationHealth(f *replication.Follower) api.ReplicationHealth {
	st := f.Status()
	rh := api.ReplicationHealth{AppliedGeneration: st.AppliedGeneration}
	peer := api.PeerHealth{Role: "leader", Address: st.Leader, Generation: st.LeaderGeneration,
		Healthy: st.LastError == "", LastSyncAgeSeconds: -1, LastError: st.LastError}
	if st.LeaderGeneration > st.AppliedGeneration {
		peer.LagGenerations = st.LeaderGeneration - st.AppliedGeneration
	}
	rh.Peers = []api.PeerHealth{peer}
	return rh
}

// setupLiveTail fills the leader, snapshots and compacts it as tslpd
// does, starts its exporter, runs the follower's first tail, and puts
// the follower's replica behind the front. Every request of the mix is
// read once through the front so the replica's detectors and cache
// start warm.
func (b *bench) setupLiveTail(ctx context.Context) (*tailEnv, error) {
	f := newFixture(b.cfg.seed, tailVPs, tailLinks, tailDays)
	rng := rand.New(rand.NewSource(int64(b.cfg.seed)))
	// The mix reads the whole retained range, including every day the
	// ticks can write into, so every tick invalidates what it reads and
	// no tick writes outside the windows the incremental detector folds.
	spare := spareDays(b.cfg.seconds)
	all := window{from: netsim.Epoch, days: tailDays + spare}
	cat := f.catalog(all, all, all, 60, all)
	e := &tailEnv{f: f, seq: mix(rng, cat, 20000), congestion: cat[classCongestion],
		staged: tsdb.NewStaged(), next: f.end(), maxTicks: spare * ticksPerDay}

	var err error
	if e.ldir, err = b.mkdir("live_tail-leader"); err != nil {
		return nil, err
	}
	fdir, err := b.mkdir("live_tail-follower")
	if err != nil {
		return nil, err
	}
	e.leader = tsdb.Open()
	f.fill(e.leader)
	if _, err := e.leader.SnapshotDir(e.ldir, tsdb.DirOptions{Incremental: true}); err != nil {
		return nil, err
	}
	if _, err := e.leader.Compact(e.ldir, tsdb.CompactOptions{ColdBefore: f.end().AddDate(0, 0, -2)}); err != nil {
		return nil, err
	}
	if e.exporter, err = serve(replication.NewExporter(e.ldir)); err != nil {
		return nil, err
	}
	e.fdb = tsdb.Open()
	e.follower = replication.New(e.exporter.URL, fdir, e.fdb, replication.Options{Lazy: true})
	if _, err := e.follower.TailOnce(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("first tail: %w", err)
	}
	e.server = api.New(e.fdb,
		api.WithReplication(func() api.ReplicationHealth { return replicationHealth(e.follower) }),
		api.WithStorageDir(fdir),
		api.WithStaleWhileRevalidate(swrBudget))
	if e.replica, err = serve(e.server); err != nil {
		e.close()
		return nil, err
	}
	if e.front, err = api.NewFront([]string{e.replica.URL}, api.FrontOptions{}); err != nil {
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
		if _, err := c.getOK(ctx, e.frontL.URL+r.path); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up read: %w", err)
		}
	}
	return e, nil
}

// tickStats is the timing of one tick's steps, in ms.
type tickStats struct {
	freshMs, writeMs, snapMs, tailMs, pollMs, readMs float64
	points                                           int
	dir                                              tsdb.DirStats
	cycle                                            replication.CycleStats
}

// tick commits one probe round on the leader and follows it to the
// front: Staged WriteBatch and Commit, an incremental SnapshotDir, the
// follower's TailOnce, the front's PollNow, then reads through the front
// until the round's newest point is visible. Freshness runs from the
// start of WriteBatch to the first front response holding the point.
func (e *tailEnv) tick(ctx context.Context, b *bench, c *client, tr *tracer) (tickStats, error) {
	var ts tickStats
	at := e.next
	e.next = e.next.Add(round)
	e.buf = e.f.roundPoints(e.buf[:0], at)
	ts.points = len(e.buf)
	probe := e.f.series[e.ticks%len(e.f.series)].tags
	e.ticks++
	q := url.Values{"m": {"tslp"}, "from": {rfc(at)}, "to": {rfc(at.Add(round - time.Nanosecond))}}
	for k, v := range probe {
		q.Set(k, v)
	}
	probeURL := e.frontL.URL + "/api/v1/query?" + q.Encode()

	trace := tr.newTrace()
	root := tr.begin(trace, 0, "harness.tick")
	defer tr.end(root)
	step := func(name string, ms *float64, fn func()) {
		t0 := time.Now()
		tr.timed(trace, root, name, func(int) { fn() })
		*ms += msSince(t0)
	}
	start := time.Now()
	step("tsdb.WriteBatch", &ts.writeMs, func() { e.staged.WriteBatch(e.buf) })
	step("tsdb.Commit", &ts.writeMs, func() { e.staged.Commit(e.leader) })
	var err error
	step("tsdb.SnapshotDir", &ts.snapMs, func() {
		ts.dir, err = e.leader.SnapshotDir(e.ldir, tsdb.DirOptions{Incremental: true})
	})
	if err != nil {
		return ts, fmt.Errorf("leader snapshot: %w", err)
	}
	step("replication.TailOnce", &ts.tailMs, func() { ts.cycle, err = e.follower.TailOnce(ctx) })
	if err != nil {
		return ts, fmt.Errorf("follower tail: %w", err)
	}
	step("front.PollNow", &ts.pollMs, func() { e.front.PollNow(ctx) })
	for {
		var resp response
		step("front.read", &ts.readMs, func() { resp, err = c.get(ctx, probeURL) })
		if err == nil && resp.status == 200 && holdsPoint(resp.body, at) {
			ts.freshMs = msSince(start)
			b.led.op(true)
			return ts, nil
		}
		if time.Since(start) > visibleWithin {
			b.logf("tick at %s not visible at the front within %s (err=%v status=%d)", rfc(at), visibleWithin, err, resp.status)
			b.led.op(false)
			ts.freshMs = msSince(start)
			return ts, nil
		}
	}
}

// holdsPoint reports whether a /api/v1/query body holds a point at t.
func holdsPoint(body []byte, t time.Time) bool {
	var qr api.QueryResponse
	if json.Unmarshal(body, &qr) != nil {
		return false
	}
	for _, s := range qr.Series {
		for _, pt := range s.Times {
			if pt.Equal(t) {
				return true
			}
		}
	}
	return false
}

// tailPhase runs ticks back to back while the open-loop generator reads
// the mix through the front for seconds.
func (e *tailEnv) tailPhase(ctx context.Context, b *bench, tr *tracer, seconds float64) ([]tickStats, []sample, time.Duration, error) {
	n := int(tailRate * seconds)
	cs := clients(b.nproc)
	defer closeClients(cs)
	var reads []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		reads = openLoop(cs, n, tailRate, func(c *client, i int) (int64, bool) {
			r := e.seq[i]
			var resp response
			var err error
			tr.timed(tr.newTrace(), 0, "front.read", func(int) { resp, err = c.get(ctx, e.frontL.URL+r.path) })
			ok := err == nil && resp.status == 200
			b.led.op(ok)
			if !ok {
				b.logf("read failed: %s: err=%v status=%d", r.path, err, resp.status)
			}
			return resp.wire, ok
		})
	}()
	c := newClient()
	defer c.close()
	var ticks []tickStats
	start := time.Now()
	for {
		select {
		case <-done:
			return ticks, reads, time.Since(start), nil
		default:
		}
		if e.ticks == e.maxTicks {
			el := time.Since(start)
			b.logf("live_tail: the read window is full after %d ticks; ticking stops", e.ticks)
			<-done
			return ticks, reads, el, nil
		}
		ts, err := e.tick(ctx, b, c, tr)
		if err != nil {
			<-done
			return ticks, reads, time.Since(start), err
		}
		ticks = append(ticks, ts)
	}
}

func runLiveTail(ctx context.Context, b *bench) error {
	b.logf("live_tail: leader %d VPs x %d links x 2 sides x %d days, one lazy follower behind one front; ticks of one %s round back to back; open-loop mix at %g reads/s over the whole range, %d days past the fixture (room for %d ticks)",
		tailVPs, tailLinks, tailDays, round, tailRate, spareDays(b.cfg.seconds), spareDays(b.cfg.seconds)*ticksPerDay)
	// The phase is split over setupRuns set-ups, each checked before it
	// is closed, so one environment's luck does not decide the result.
	// The live heap is taken at the end of each set-up's ticks, with the
	// replica's read cache emptied first: a set-up ends near the point
	// where the cache (readcache.DefaultMaxEntries bodies, old versions
	// included) fills, so how many large bodies it holds then turned on
	// the seed and moved the figure by a quarter. read_storm's heap
	// includes its cache.
	var ticks []tickStats
	var heaps []float64
	var reads []sample
	var el time.Duration
	var setups []float64
	var e *tailEnv
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			if err := b.checkLiveTail(ctx, e); err != nil {
				return err
			}
			e.close()
			e = nil
		}
		t0 := time.Now()
		env, err := b.setupLiveTail(ctx)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e = env
		setups = append(setups, time.Since(t0).Seconds())
		t, r, d, err := e.tailPhase(ctx, b, nil, b.phase()/setupRuns)
		if err != nil {
			return err
		}
		ticks, reads, el = append(ticks, t...), append(reads, r...), el+d
		e.server.PurgeCache()
		heaps = append(heaps, liveHeapMB(e))
	}
	b.recordSetups(setups)
	fresh := summarize(tickColumn(ticks, func(t tickStats) float64 { return t.freshMs }), 99)
	lat := summarize(column(reads, func(s sample) float64 { return s.latMs }), 99)
	ticksPerS := float64(len(ticks)) / el.Seconds()
	b.addE2E("live_heap_mb", "MiB", median(heaps), fmt.Sprintf("(median of %d set-ups: %.1f)", len(heaps), heaps))
	b.addE2E("throughput_per_s", "1/s", ticksPerS, fmt.Sprintf("(ticks: %d write-to-visible ticks in %.2fs)", len(ticks), el.Seconds()))
	b.addE2E("latency_p50_ms", "ms", fresh.P50, fmt.Sprintf("(freshness_p50_ms; freshness over ticks: %s)", fresh))
	b.logf("live_tail: background reads from due time at %g reads/s: read_p50_ms/read_p99_ms %s; read_wire_kb %.1f KiB",
		tailRate, lat, meanWireKB(reads))
	printFreshness(b, ticks)

	if b.cfg.trace {
		if err := b.traceLiveTail(ctx, e, ticksPerS); err != nil {
			return err
		}
	}
	return b.checkLiveTail(ctx, e)
}

func tickColumn(ts []tickStats, f func(tickStats) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

// printFreshness breaks the median tick into its steps.
func printFreshness(b *bench, ticks []tickStats) {
	col := func(f func(tickStats) float64) float64 { return median(tickColumn(ticks, f)) }
	b.logf("live_tail freshness breakdown (medians over %d ticks, ms): total %.2f = tsdb write %.2f + tsdb snapshot %.2f + replication tail %.2f + front.poll %.2f + read %.2f",
		len(ticks),
		col(func(t tickStats) float64 { return t.freshMs }),
		col(func(t tickStats) float64 { return t.writeMs }),
		col(func(t tickStats) float64 { return t.snapMs }),
		col(func(t tickStats) float64 { return t.tailMs }),
		col(func(t tickStats) float64 { return t.pollMs }),
		col(func(t tickStats) float64 { return t.readMs }))
}

// checkLiveTail checks that the follower holds exactly the leader's
// data and that the front's congestion body for every link equals a
// fresh batch analysis.Autocorrelation over the leader's views.
func (b *bench) checkLiveTail(ctx context.Context, e *tailEnv) error {
	ok := e.fdb.Digest() == e.leader.Digest()
	if !ok {
		b.logf("CHECK FAILED: follower digest %016x, leader %016x", e.fdb.Digest(), e.leader.Digest())
	}
	b.led.check(ok)

	c := newClient()
	defer c.close()
	for _, r := range e.congestion {
		want, err := batchCongestion(e.leader, r.path)
		if err != nil {
			return err
		}
		// A stale-while-revalidate answer is the previous tick's body;
		// read until the refresh has landed.
		var resp response
		deadline := time.Now().Add(visibleWithin)
		for {
			resp, err = c.get(ctx, e.frontL.URL+r.path)
			if err != nil || resp.header.Get("X-Stale") == "" || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		ok := err == nil && resp.status == 200 && resp.header.Get("X-Stale") == "" && bytes.Equal(resp.body, want)
		if !ok {
			b.logf("CHECK FAILED: congestion %s: front body differs from the batch analysis (err=%v status=%d)", r.path, err, resp.status)
		}
		b.led.check(ok)
	}
	b.logf("live_tail: %d ticks committed; follower digest matches leader: %v; %d congestion bodies checked against batch Autocorrelation",
		e.ticks, ok, len(e.congestion))
	return nil
}

// batchCongestion recomputes a /api/v1/congestion body anew
// with the batch detector over db's views, encoded as the API encodes
// it.
func batchCongestion(db *tsdb.DB, path string) ([]byte, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	from, err := time.Parse(time.RFC3339, q.Get("from"))
	if err != nil {
		return nil, err
	}
	cfg := analysis.DefaultAutocorr()
	if _, err := fmt.Sscan(q.Get("days"), &cfg.WindowDays); err != nil {
		return nil, err
	}
	bin := 24 * time.Hour / time.Duration(cfg.BinsPerDay)
	n := cfg.WindowDays * cfg.BinsPerDay
	to := from.Add(time.Duration(n) * bin)
	side := func(name string) *analysis.BinSeries {
		s := analysis.NewBinSeries(from, bin, n)
		for _, v := range db.QueryView("tslp", map[string]string{"link": q.Get("link"), "side": name}, from, to) {
			for i, ns := range v.Times {
				s.ObserveNanos(ns, v.Values[i])
			}
		}
		return s
	}
	res, err := analysis.Autocorrelation(side("far"), side("near"), cfg)
	if err != nil {
		return nil, err
	}
	resp := api.CongestionResponse{Recurring: res.Recurring, Reject: res.RejectReason, Days: []api.DayJSON{}}
	for _, d := range res.Days {
		resp.Days = append(resp.Days, api.DayJSON{Day: d.Day.Format("2006-01-02"), Congested: d.Congested, Fraction: d.Fraction})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// traceLiveTail runs the tick phase again with spans, reading the
// replica's counters before and after.
func (b *bench) traceLiveTail(ctx context.Context, e *tailEnv, untracedTicksPerS float64) error {
	tr := newTracer()
	c := newClient()
	defer c.close()
	dbs, replicas := []*tsdb.DB{e.fdb}, []string{e.replica.URL}
	before, err := readCounters(ctx, c, dbs, replicas, e.frontL.URL)
	if err != nil {
		return err
	}
	ticks, reads, el, err := e.tailPhase(ctx, b, tr, b.phase())
	if err != nil {
		return err
	}
	after, err := readCounters(ctx, c, dbs, replicas, e.frontL.URL)
	if err != nil {
		return err
	}
	var points, written, reused, fetched, deltas, fallbacks int
	var bytesFetched int64
	for _, t := range ticks {
		points += t.points
		written += t.dir.Written
		reused += t.dir.Reused
		fetched += t.cycle.SegmentsFetched
		deltas += t.cycle.DeltaSegments
		fallbacks += t.cycle.DeltaFallbacks
		bytesFetched += t.cycle.BytesFetched
	}
	spans := tr.snapshot()
	writeMs := append(durationsMs(spans, "tsdb.WriteBatch"), durationsMs(spans, "tsdb.Commit")...)
	var writeTotal float64
	for _, ms := range writeMs {
		writeTotal += ms
	}
	snap := tickColumn(ticks, func(t tickStats) float64 { return t.snapMs })
	tail := summarize(tickColumn(ticks, func(t tickStats) float64 { return t.tailMs }), 99)
	info, err := tsdb.ReadDirInfo(e.ldir)
	if err != nil {
		return err
	}
	b.addLayer("tsdb.points_written", "count", float64(points))
	b.addLayer("tsdb.write_points_per_s", "1/s", ratio(float64(points), writeTotal/1000))
	b.addLayer("tsdb.snapshot_ms_p50", "ms", median(snap))
	b.addLayer("tsdb.snapshot_ms_max", "ms", maxOf(snap))
	b.addLayer("tsdb.segments_written", "count", float64(written))
	b.addLayer("tsdb.segments_reused", "count", float64(reused))
	b.addLayer("tsdb.bytes_per_point", "B", ratio(float64(info.Bytes), float64(info.Points)))
	b.addLayer("replication.tail_ms_p50", "ms", tail.P50)
	b.addLayer("replication.tail_ms_p99", "ms", tail.Tail)
	b.addLayer("replication.bytes_per_point", "B", ratio(float64(bytesFetched), float64(points)))
	b.addLayer("replication.delta_hit_ratio", "ratio", ratio(float64(deltas), float64(fetched)))
	b.addLayer("replication.delta_fallbacks", "count", float64(fallbacks))
	b.addCounterLayers(before, after)
	b.addLayer("front.poll_ms", "ms", median(tickColumn(ticks, func(t tickStats) float64 { return t.pollMs })))
	b.addLayer("read_wire_kb", "KiB", meanWireKB(reads))
	b.addLayer("freshness.read_ms_p50", "ms", median(tickColumn(ticks, func(t tickStats) float64 { return t.readMs })))
	b.addLayer("gen.late_ms_p99", "ms", summarize(column(reads, func(s sample) float64 { return s.lateMs }), 99).Tail)
	tracedTicksPerS := float64(len(ticks)) / el.Seconds()
	b.addLayer("trace.overhead_ratio", "ratio", ratio(untracedTicksPerS, tracedTicksPerS))
	b.logf("live_tail traced: %d ticks, replication tail %s ms, %d/%d segments by delta", len(ticks), tail, deltas, fetched)
	printFreshness(b, ticks)
	return b.finishTrace(tr)
}
