package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"interdomain/internal/core"
	"interdomain/internal/netsim"
	"interdomain/internal/scenario"
	"interdomain/internal/tsdb"
)

// Campaign input size: campaignVPs vantage points on the sharded
// scheduler, probing for campaignHours(seconds) virtual hours after the
// two-hour bdrmap warm-up that set-up runs. Every campaignRepeats runs
// use fresh set-ups of the same seed and must end on one digest.
const (
	campaignVPs     = 4
	campaignRepeats = 3
	// probeRound is a TSLP round of virtual time; the Staged replay
	// commits one round per batch.
	probeRound = 5 * time.Minute
	// snapshotEvery is the virtual-time cadence of the global snapshot
	// event; with hourly segment windows every snapshot rewrites only
	// the open hour and compaction has cold hours to merge.
	snapshotEvery = 30 * time.Minute
	segmentWindow = time.Hour
	compactAfter  = 2 * time.Hour
)

// campaignStart is when the measured campaign begins: after every VP's
// first bdrmap cycle, when TSLP and loss probing are running.
var campaignStart = netsim.Epoch.Add(2*time.Hour + time.Minute)

// campaignHours sizes each repeat so the repeats together take about
// the measured seconds on a 2-core machine (about 0.7 s per virtual
// hour at 4 VPs).
func campaignHours(seconds float64) int {
	h := int(seconds/float64(campaignRepeats)/0.7 + 0.5)
	if h < 1 {
		h = 1
	}
	return h
}

// campaignEnv is one set-up campaign: a warmed-up system and its
// segment directory.
type campaignEnv struct {
	sys *core.System
	db  *tsdb.DB
	dir string
}

func (b *bench) setupCampaign() (*campaignEnv, error) {
	in, _, err := scenario.Build(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	db := tsdb.Open()
	db.SetSegmentWindow(segmentWindow)
	sys := core.NewParallelSystem(in, db, netsim.Epoch, b.nproc)
	for _, spec := range campaignVPSpecs(campaignVPs) {
		if _, err := sys.AddVP(spec.ASN, spec.Metro, netsim.Epoch); err != nil {
			return nil, err
		}
	}
	sys.Start()
	sys.RunUntil(campaignStart)
	// Loss probing on every discovered link, with every AS on the
	// static list, so the campaign forwards the full probe load.
	static := map[int]bool{}
	for _, a := range in.ASList() {
		static[a.ASN] = true
	}
	for _, sv := range sys.SortedVPs() {
		links := map[string]bool{}
		for _, id := range sv.TSLP.Links() {
			links[id] = true
		}
		sys.ArmLossProbing(sv, links, static)
	}
	dir, err := b.mkdir("campaign")
	if err != nil {
		return nil, err
	}
	return &campaignEnv{sys: sys, db: db, dir: dir}, nil
}

// campaignVPSpecs picks n VPs round-robin across access providers, so
// consecutive VPs sit in different ASes and scheduler partitions.
func campaignVPSpecs(n int) []core.VPSpec {
	byAS := map[int][]core.VPSpec{}
	var order []int
	for _, s := range scenario.VPs() {
		if len(byAS[s.ASN]) == 0 {
			order = append(order, s.ASN)
		}
		byAS[s.ASN] = append(byAS[s.ASN], s)
	}
	var out []core.VPSpec
	for i := 0; len(out) < n; i++ {
		asn := order[i%len(order)]
		if k := i / len(order); k < len(byAS[asn]) {
			out = append(out, byAS[asn][k])
		}
	}
	return out
}

// campaignStats is what one measured campaign did.
type campaignStats struct {
	events int
	wall   time.Duration
	// hourMs and hourRates are the wall time and the events per wall
	// second of each virtual hour, its two snapshot barriers included.
	hourMs    []float64
	hourRates []float64
	snapMs    []float64
	compMs    []float64
	written   int
	reused    int
	digest    uint64
}

// run probes for hours virtual hours, one RunUntil call per hour. A
// global event snapshots the store incrementally and compacts cold
// windows every snapshotEvery, as tslpd -datadir does, and a final
// snapshot and compaction follow the last hour.
func (e *campaignEnv) run(hours int, tr *tracer) (campaignStats, error) {
	var st campaignStats
	var trace uint64
	var parent int
	var persistErr error
	persist := func(t time.Time) {
		var ds tsdb.DirStats
		var err error
		t0 := time.Now()
		tr.timed(trace, parent, "tsdb.SnapshotDir", func(int) {
			ds, err = e.db.SnapshotDir(e.dir, tsdb.DirOptions{Incremental: true})
		})
		st.snapMs = append(st.snapMs, msSince(t0))
		if err != nil {
			persistErr = err
			return
		}
		st.written += ds.Written
		st.reused += ds.Reused
		t0 = time.Now()
		tr.timed(trace, parent, "tsdb.Compact", func(int) {
			_, err = e.db.Compact(e.dir, tsdb.CompactOptions{ColdBefore: t.Add(-compactAfter)})
		})
		st.compMs = append(st.compMs, msSince(t0))
		if err != nil {
			persistErr = err
		}
	}
	cancel := e.sys.Sched.Every(campaignStart.Add(snapshotEvery), snapshotEvery, persist)
	defer cancel()

	start := time.Now()
	for h := 1; h <= hours && persistErr == nil; h++ {
		trace = tr.newTrace()
		t0 := time.Now()
		var n int
		tr.timed(trace, 0, "core.RunUntil", func(id int) {
			parent = id
			n = e.sys.RunUntil(campaignStart.Add(time.Duration(h) * time.Hour))
		})
		st.events += n
		st.hourMs = append(st.hourMs, msSince(t0))
		st.hourRates = append(st.hourRates, float64(n)/time.Since(t0).Seconds())
	}
	if persistErr != nil {
		return st, fmt.Errorf("campaign snapshot: %w", persistErr)
	}
	for _, sv := range e.sys.SortedVPs() {
		sv.Loss.Flush()
	}
	e.sys.Sync()
	trace, parent = tr.newTrace(), 0
	persist(campaignStart.Add(time.Duration(hours) * time.Hour))
	if persistErr != nil {
		return st, fmt.Errorf("campaign final snapshot: %w", persistErr)
	}
	st.wall = time.Since(start)
	st.digest = e.db.Digest()
	return st, nil
}

// checkRestore reopens the final directory lazily and checks its digest
// against the live store's.
func (b *bench) checkRestore(e *campaignEnv, tr *tracer, want uint64) {
	db := tsdb.Open()
	var err error
	tr.timed(tr.newTrace(), 0, "tsdb.RestoreDir", func(int) {
		err = db.RestoreDir(e.dir, tsdb.DirOptions{Lazy: true})
	})
	ok := err == nil && db.Digest() == want
	if !ok {
		b.logf("CHECK FAILED: campaign directory restore: err=%v digest %016x, live store %016x", err, db.Digest(), want)
	}
	b.led.check(ok)
}

func runCampaign(ctx context.Context, b *bench) error {
	hours := campaignHours(b.phase())
	b.logf("campaign: %d VPs, %d repeats x %d virtual hours (after a 2h bdrmap warm-up in set-up), snapshot+compact every %s of virtual time, %d workers",
		campaignVPs, campaignRepeats, hours, snapshotEvery, b.nproc)

	// Each repeat runs on its own set-up, so the repeats must agree on
	// one digest.
	var all campaignStats
	var digests []uint64
	var setups []float64
	var last *campaignEnv
	for i := 0; i < campaignRepeats; i++ {
		last = nil // let the previous repeat's store go before the next set-up
		t0 := time.Now()
		e, err := b.setupCampaign()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st, err := e.run(hours, nil)
		if err != nil {
			return err
		}
		b.checkRestore(e, nil, st.digest)
		digests = append(digests, st.digest)
		all.events += st.events
		all.wall += st.wall
		all.hourMs = append(all.hourMs, st.hourMs...)
		all.hourRates = append(all.hourRates, st.hourRates...)
		last = e
	}
	b.recordSetups(setups)
	for _, d := range digests[1:] {
		ok := d == digests[0]
		if !ok {
			b.logf("CHECK FAILED: campaign repeats with seed %d diverged", b.cfg.seed)
		}
		b.led.check(ok)
	}
	// The median over virtual hours, so a burst of interference from
	// outside the benchmark moves one hour, not the result.
	eventsPerS := median(all.hourRates)
	hourMs := summarize(all.hourMs, 99)
	b.addE2E("live_heap_mb", "MiB", liveHeapMB(last), "")
	b.addE2E("throughput_per_s", "1/s", eventsPerS, fmt.Sprintf("(campaign_events_per_s: median of %d virtual hours; %d events in %.2fs overall)",
		len(all.hourRates), all.events, all.wall.Seconds()))
	b.addE2E("latency_p50_ms", "ms", hourMs.P50, fmt.Sprintf("(wall ms per virtual hour: %s)", hourMs))
	b.logf("campaign: digest %016x, %d points in store", last.db.Digest(), last.db.PointCount())

	if !b.cfg.trace {
		return nil
	}
	return b.traceCampaign(hours, eventsPerS)
}

// traceCampaign repeats one campaign with spans, then replays its
// points through tsdb.Staged into a fresh store to time the write path
// on its own.
func (b *bench) traceCampaign(hours int, untracedEventsPerS float64) error {
	tr := newTracer()
	e, err := b.setupCampaign()
	if err != nil {
		return err
	}
	st, err := e.run(hours, tr)
	if err != nil {
		return err
	}
	b.checkRestore(e, tr, st.digest)
	spans := tr.snapshot()
	self := selfTimes(spans)
	busy := self["core"]

	points, writeS, err := b.replayCampaign(e.db, tr)
	if err != nil {
		return err
	}
	info, err := tsdb.ReadDirInfo(e.dir)
	if err != nil {
		return err
	}
	b.addLayer("core.run_busy_s", "s", busy)
	b.addLayer("netsim.events", "count", float64(st.events))
	b.addLayer("netsim.events_per_busy_s", "1/s", ratio(float64(st.events), busy))
	b.addLayer("tsdb.points_written", "count", float64(points))
	b.addLayer("tsdb.write_points_per_s", "1/s", ratio(float64(points), writeS))
	b.addLayer("tsdb.snapshot_ms_p50", "ms", median(st.snapMs))
	b.addLayer("tsdb.snapshot_ms_max", "ms", maxOf(st.snapMs))
	b.addLayer("tsdb.segments_written", "count", float64(st.written))
	b.addLayer("tsdb.segments_reused", "count", float64(st.reused))
	b.addLayer("tsdb.compact_ms", "ms", median(st.compMs))
	b.addLayer("tsdb.bytes_per_point", "B", ratio(float64(info.Bytes), float64(info.Points)))
	tracedEventsPerS := median(st.hourRates)
	b.addLayer("trace.overhead_ratio", "ratio", ratio(untracedEventsPerS, tracedEventsPerS))
	b.logf("traced campaign: %d events, core busy %.3fs, snapshots %s ms, compactions %s ms",
		st.events, busy, summarize(st.snapMs, 99), summarize(st.compMs, 99))
	return b.finishTrace(tr)
}

// replayCampaign writes every point of src into a fresh store through
// tsdb.Staged, one probe round of virtual time per WriteBatch and
// Commit, and checks the copy's digest. It returns the point count and
// the seconds spent in WriteBatch and Commit.
func (b *bench) replayCampaign(src *tsdb.DB, tr *tracer) (int, float64, error) {
	var pts []tsdb.BatchPoint
	for _, m := range src.Measurements() {
		for _, v := range src.QueryView(m, nil, netsim.Epoch.AddDate(-1, 0, 0), netsim.Epoch.AddDate(1, 0, 0)) {
			for i, ns := range v.Times {
				pts = append(pts, tsdb.BatchPoint{Measurement: m, Tags: v.Tags, Time: time.Unix(0, ns).UTC(), Value: v.Values[i]})
			}
		}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Time.Before(pts[j].Time) })

	dst := tsdb.Open()
	st := tsdb.NewStaged()
	var busy time.Duration
	for lo := 0; lo < len(pts); {
		hi := lo
		end := pts[lo].Time.Truncate(probeRound).Add(probeRound)
		for hi < len(pts) && pts[hi].Time.Before(end) {
			hi++
		}
		trace := tr.newTrace()
		t0 := time.Now()
		tr.timed(trace, 0, "tsdb.WriteBatch", func(int) { st.WriteBatch(pts[lo:hi]) })
		tr.timed(trace, 0, "tsdb.Commit", func(int) { st.Commit(dst) })
		busy += time.Since(t0)
		lo = hi
	}
	ok := dst.Digest() == src.Digest()
	if !ok {
		b.logf("CHECK FAILED: Staged replay digest %016x, campaign store %016x", dst.Digest(), src.Digest())
	}
	b.led.check(ok)
	return len(pts), busy.Seconds(), nil
}
