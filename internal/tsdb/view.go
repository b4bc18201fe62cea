package tsdb

// Versioned zero-copy read path (docs/SERVING.md §1-§2): QueryView
// serves range reads as columnar views into per-series snapshots owned
// by the store, instead of the Point-by-Point deep copies Query makes,
// and ViewStamp condenses the versions of a filter's matching series
// into one cache-invalidation stamp. Together they let the serving tier
// (internal/readcache + internal/api) do O(changed-data) work per
// request instead of O(full-detector).

import (
	"hash/fnv"
	"sort"
	"time"
)

// colSeries is one series' columnar snapshot: Points transposed into
// parallel time/value arrays at a specific series version. A snapshot
// is immutable once published — a later write builds a fresh one rather
// than mutating this one — which is what makes handing its subslices to
// callers safe without copying (docs/SERVING.md §1, validity contract).
type colSeries struct {
	version uint64
	times   []int64
	values  []float64
}

// colLocked returns the series' columnar snapshot for its current
// version, building it if the cached one is stale. The caller must hold
// the shard's write lock.
func (s *Series) colLocked() *colSeries {
	if s.col != nil && s.col.version == s.version {
		return s.col
	}
	c := &colSeries{
		version: s.version,
		times:   make([]int64, len(s.Points)),
		values:  make([]float64, len(s.Points)),
	}
	for i, p := range s.Points {
		c.times[i] = p.Time.UnixNano()
		c.values[i] = p.Value
	}
	s.col = c
	return c
}

// colFreshLocked reports whether the series' columnar snapshot is
// already current. The caller must hold the shard lock (read suffices).
// Lazy stubs are always fresh: they never transpose — views decode
// straight from surviving blocks (lazy.go).
func (s *Series) colFreshLocked() bool {
	if s.lazy != nil {
		return true
	}
	return len(s.Points) == 0 || (s.col != nil && s.col.version == s.version)
}

// SeriesView is a copy-free columnar range view of one series: Times
// (Unix nanoseconds, ascending) and Values are parallel subslices of a
// store-owned immutable snapshot taken at Version.
//
// Validity contract (docs/SERVING.md §1):
//
//   - Times and Values are immutable. The store never writes into a
//     published snapshot — a later Write/WriteBatch/Retain/Restore
//     builds a new snapshot — so a view stays internally consistent for
//     as long as the caller holds it, surviving any concurrent writes.
//   - A view is a snapshot, not a live cursor: points written after
//     QueryView returned are not visible through it. Re-query (or
//     compare ViewStamp) to observe new data.
//   - Tags is the store's own map, shared to avoid a per-series copy.
//     It is never mutated after the series is created; callers must
//     treat it as read-only.
type SeriesView struct {
	// Measurement is the series' measurement name.
	Measurement string
	// Tags is the store-owned tag set; read-only for callers.
	Tags map[string]string
	// Times holds the view's timestamps in Unix nanoseconds, ascending.
	Times []int64
	// Values holds one value per entry of Times.
	Values []float64
	// Version is the series' write-version the snapshot was taken at.
	Version uint64
}

// Len returns the number of points in the view.
func (v SeriesView) Len() int { return len(v.Times) }

// QueryView returns, for every series of the measurement matching the
// tag filter, a columnar view of the points within [from, to), in
// canonical key order — the same series Query returns, without copying
// any point data (see SeriesView for the validity contract). The first
// view of a series after a write pays one O(points) transposition to
// refresh that series' columnar snapshot; subsequent views of an
// unchanged series only binary-search the range.
func (db *DB) QueryView(measurement string, filter map[string]string, from, to time.Time) []SeriesView {
	return db.QueryViewWhere(measurement, filter, from, to, nil)
}

// ValueBound restricts a bounded query (QueryViewWhere) to points
// whose value lies in [Min, Max], both inclusive. NaN values never
// match a bound.
type ValueBound struct {
	// Min is the inclusive lower value bound.
	Min float64
	// Max is the inclusive upper value bound.
	Max float64
}

// contains reports whether v satisfies the bound; NaN never does.
func (vb ValueBound) contains(v float64) bool { return v >= vb.Min && v <= vb.Max }

// intersects reports whether a block whose value summary is [min, max]
// could hold a matching point. NaN summaries (all-NaN blocks) compare
// false and are conservatively kept — the point filter excludes their
// points.
func (vb ValueBound) intersects(min, max float64) bool {
	return !(max < vb.Min || min > vb.Max)
}

// QueryViewWhere is QueryView with an optional value bound: with vb
// non-nil only points vb contains are returned. On a lazily opened
// store the bound prunes at block granularity first — blocks whose
// [min, max] summary cannot intersect vb are skipped without being
// decoded (docs/PERSISTENCE.md §9) — and the surviving blocks' points
// are then filtered identically to the eager path, so both open modes
// return the same views. A nil vb is exactly QueryView.
func (db *DB) QueryViewWhere(measurement string, filter map[string]string, from, to time.Time, vb *ValueBound) []SeriesView {
	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return nil
	}
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	var out []SeriesView
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		// Optimistic read-locked pass: if every matching series already
		// has a fresh columnar snapshot (the steady state of a serving
		// tier), views are built without ever taking the write lock.
		sh.mu.RLock()
		fresh := true
		for _, k := range byShard[si] {
			if s, ok := sh.series[k]; ok && s.matches(measurement, filter) && !s.colFreshLocked() {
				fresh = false
				break
			}
		}
		if fresh {
			out = appendViews(out, sh, byShard[si], measurement, filter, fromNs, toNs, vb)
			sh.mu.RUnlock()
			continue
		}
		sh.mu.RUnlock()
		// Some snapshot is stale: refresh under the write lock, then
		// build the views in the same critical section. Lazy stubs are
		// never stale (colFreshLocked) and must not be transposed here.
		sh.mu.Lock()
		for _, k := range byShard[si] {
			if s, ok := sh.series[k]; ok && s.matches(measurement, filter) && len(s.Points) > 0 {
				s.colLocked()
			}
		}
		out = appendViews(out, sh, byShard[si], measurement, filter, fromNs, toNs, vb)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return Key(out[i].Measurement, out[i].Tags) < Key(out[j].Measurement, out[j].Tags)
	})
	return out
}

// appendViews slices each matching series' fresh columnar snapshot to
// [fromNs, toNs), applies the optional value bound, and appends the
// non-empty views. Lazy stubs route through appendLazyView. The caller
// must hold the shard lock and have ensured every matching non-empty
// eager series has a fresh snapshot.
func appendViews(out []SeriesView, sh *shard, keys []string, measurement string, filter map[string]string, fromNs, toNs int64, vb *ValueBound) []SeriesView {
	for _, k := range keys {
		s, ok := sh.series[k]
		if !ok || !s.matches(measurement, filter) {
			continue
		}
		if s.lazy != nil {
			out = appendLazyView(out, s, fromNs, toNs, vb)
			continue
		}
		if len(s.Points) == 0 {
			continue
		}
		c := s.col
		lo := sort.Search(len(c.times), func(i int) bool { return c.times[i] >= fromNs })
		hi := sort.Search(len(c.times), func(i int) bool { return c.times[i] >= toNs })
		if lo >= hi {
			continue
		}
		if vb == nil {
			out = append(out, SeriesView{
				Measurement: s.Measurement,
				Tags:        s.Tags,
				Times:       c.times[lo:hi],
				Values:      c.values[lo:hi],
				Version:     s.version,
			})
			continue
		}
		ts, vs := filterBound(c.times[lo:hi], c.values[lo:hi], vb)
		if len(ts) == 0 {
			continue
		}
		out = append(out, SeriesView{
			Measurement: s.Measurement,
			Tags:        s.Tags,
			Times:       ts,
			Values:      vs,
			Version:     s.version,
		})
	}
	return out
}

// appendLazyView builds one lazy series' view: prune blocks by
// summary, decode survivors through the cache, then slice or
// copy-assemble. A view over exactly one surviving block with no value
// bound aliases the cached decoded columns zero-copy; everything else
// assembles fresh slices (decoded columns are immutable heap data, so
// either form satisfies the SeriesView validity contract).
func appendLazyView(out []SeriesView, s *Series, fromNs, toNs int64, vb *ValueBound) []SeriesView {
	l := s.lazy
	refs := l.selectRefs(fromNs, toNs, vb)
	if len(refs) == 0 {
		return out
	}
	type slice struct {
		d      *decodedBlock
		lo, hi int
	}
	slices := make([]slice, 0, len(refs))
	total := 0
	for _, r := range refs {
		d := l.store.decode(r)
		lo := sort.Search(len(d.times), func(i int) bool { return d.times[i] >= fromNs })
		hi := sort.Search(len(d.times), func(i int) bool { return d.times[i] >= toNs })
		if lo >= hi {
			continue
		}
		slices = append(slices, slice{d, lo, hi})
		total += hi - lo
	}
	if total == 0 {
		return out
	}
	v := SeriesView{Measurement: s.Measurement, Tags: s.Tags, Version: s.version}
	if vb == nil && len(slices) == 1 {
		sl := slices[0]
		v.Times = sl.d.times[sl.lo:sl.hi]
		v.Values = sl.d.values[sl.lo:sl.hi]
		return append(out, v)
	}
	times := make([]int64, 0, total)
	values := make([]float64, 0, total)
	for _, sl := range slices {
		if vb == nil {
			times = append(times, sl.d.times[sl.lo:sl.hi]...)
			values = append(values, sl.d.values[sl.lo:sl.hi]...)
			continue
		}
		for i := sl.lo; i < sl.hi; i++ {
			if vb.contains(sl.d.values[i]) {
				times = append(times, sl.d.times[i])
				values = append(values, sl.d.values[i])
			}
		}
	}
	if len(times) == 0 {
		return out
	}
	v.Times, v.Values = times, values
	return append(out, v)
}

// filterBound copies the entries of a column range that satisfy vb
// into fresh slices (the zero-copy subslice form is only possible for
// contiguous ranges).
func filterBound(times []int64, values []float64, vb *ValueBound) ([]int64, []float64) {
	ts := make([]int64, 0, len(times))
	vs := make([]float64, 0, len(values))
	for i, v := range values {
		if vb.contains(v) {
			ts = append(ts, times[i])
			vs = append(vs, v)
		}
	}
	return ts, vs
}

// ViewStamp condenses the identity and write-versions of every series
// matching (measurement, filter) — plus the store epoch — into one
// stamp. Two calls return the same stamp exactly when the matching
// series set and each member's contents are unchanged in between: any
// Write/WriteBatch/Staged-commit into a matching series, any Retain
// that trims one, the creation or removal of a matching series, and any
// whole-store Restore/RestoreDir all move the stamp. The serving tier
// keys its memoized analysis results on it (docs/SERVING.md §2), so a
// moved stamp is what invalidates a cached result. The stamp reads only
// index postings and per-series version counters, never point data.
func (db *DB) ViewStamp(measurement string, filter map[string]string) uint64 {
	db.global.RLock()
	epoch := db.epoch
	db.global.RUnlock()
	h := fnv.New64a()
	var buf [8]byte
	putUint64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (56 - 8*i))
		}
		h.Write(buf[:])
	}
	putUint64(epoch)

	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return h.Sum64()
	}
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	// Per-series contributions are combined by XOR so the stamp is
	// independent of map-iteration order without sorting keys.
	var acc uint64
	n := 0
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		for _, k := range byShard[si] {
			s, ok := sh.series[k]
			if !ok || !s.matches(measurement, filter) {
				continue
			}
			sub := fnv.New64a()
			sub.Write([]byte(k))
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(s.version >> (56 - 8*i))
			}
			sub.Write(b[:])
			acc ^= sub.Sum64()
			n++
		}
		sh.mu.RUnlock()
	}
	putUint64(acc)
	putUint64(uint64(n))
	return h.Sum64()
}

// Epoch returns the store's restore epoch: it increments on every
// whole-store replacement (Restore, RestoreDir), under which per-series
// write-versions restart and nothing relates a new series snapshot to a
// pre-restore one. The incremental detector accumulators
// (analysis.Incremental, docs/DETECTION.md §4) compare it across
// advances and fall back to a full recompute when it moved.
func (db *DB) Epoch() uint64 {
	db.global.RLock()
	defer db.global.RUnlock()
	return db.epoch
}

// StoreVersion returns the sum of all shard write-versions plus the
// store epoch: a cheap whole-store modification counter that moves on
// every mutation anywhere. The serving tier reports it in /api/v1/stats
// so operators can see at a glance whether a store is being written.
func (db *DB) StoreVersion() uint64 {
	db.global.RLock()
	v := db.epoch
	db.global.RUnlock()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		v += sh.version
		sh.mu.RUnlock()
	}
	return v
}

// TimeBounds returns the earliest and latest point timestamps across
// every series matching (measurement, filter), or ok=false when no
// matching series holds a point. The dashboard's link index uses it to
// anchor per-link status analyses to the data actually present.
func (db *DB) TimeBounds(measurement string, filter map[string]string) (min, max time.Time, ok bool) {
	keys, found := db.idx.candidates(measurement, filter)
	if !found {
		return time.Time{}, time.Time{}, false
	}
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		for _, k := range byShard[si] {
			s, sok := sh.series[k]
			if !sok || !s.matches(measurement, filter) {
				continue
			}
			var first, last time.Time
			if s.lazy != nil {
				// Block summaries bound the series without a decode.
				minT, maxT, lok := s.lazy.timeBounds()
				if !lok {
					continue
				}
				first, last = time.Unix(0, minT).UTC(), time.Unix(0, maxT).UTC()
			} else {
				if len(s.Points) == 0 {
					continue
				}
				// Points are time-ordered: first and last bound the series.
				first, last = s.Points[0].Time, s.Points[len(s.Points)-1].Time
			}
			if !ok || first.Before(min) {
				min = first
			}
			if !ok || last.After(max) {
				max = last
			}
			ok = true
		}
		sh.mu.RUnlock()
	}
	return min, max, ok
}
