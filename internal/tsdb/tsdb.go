// Package tsdb is the measurement system's time-series store, playing the
// role InfluxDB plays in the deployed system (§3): the probing modules
// write latency/loss/throughput points tagged with vantage point, link and
// probe kind; the analysis and visualization layers query ranges back out.
//
// The store is in-memory, persists as segment directories
// (SnapshotDir/RestoreDir) and is safe for concurrent use. Internally the series map is sharded by key hash with a
// per-shard lock, and an inverted index (measurement and tag=value →
// series keys) routes queries to only the matching series, so concurrent
// probers and analyzers scale with cores instead of serializing on one
// global lock. Points within one series are kept ordered by time;
// out-of-order writes are inserted, matching the semantics analysis code
// expects.
package tsdb

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is a single timestamped value.
type Point struct {
	Time  time.Time
	Value float64
}

// Series is one measurement stream identified by a measurement name and a
// tag set.
type Series struct {
	Measurement string
	Tags        map[string]string
	Points      []Point

	// version counts mutations of Points since the series was created
	// (or since the whole store was last replaced). It is the unit the
	// versioned read path is built on: QueryView captures it into each
	// view and ViewStamp folds it into the cache-invalidation stamp
	// (docs/SERVING.md §2).
	version uint64
	// col is the lazily built columnar snapshot of Points at
	// col.version; see view.go.
	col *colSeries
	// lazy, when non-nil, marks a block-index stub of a lazily opened
	// directory: Points is empty and reads go through the stub's block
	// refs instead (lazy.go, docs/PERSISTENCE.md §9). Mutators
	// materialize the series — decode it fully into Points and clear
	// lazy — before touching it.
	lazy *lazySeries
}

// Key returns the canonical series key: measurement plus sorted tags.
func Key(measurement string, tags map[string]string) string {
	if len(tags) == 0 {
		return measurement
	}
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(measurement)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, tags[k])
	}
	return b.String()
}

// NumShards is the number of series-map shards. 32 keeps lock contention
// negligible for the fan-out the pipeline runs (one goroutine per core)
// while the per-shard maps stay large enough to amortize hashing.
const NumShards = 32

// shard holds a slice of the keyspace behind its own lock.
type shard struct {
	mu     sync.RWMutex
	series map[string]*Series
	// dirty is the set of segment windows (window-start Unix
	// nanoseconds) whose points changed since the store's last
	// SnapshotDir; incremental snapshots rewrite exactly these. Guarded
	// by mu; nil until the first write after a snapshot.
	dirty map[int64]struct{}
	// trimmed is the subset of dirty windows that LOST points (a Retain
	// pass) since the last SnapshotDir. Insert-only dirty windows may be
	// persisted by append-extending the previous segment; a trimmed
	// window must be fully re-encoded because its old payload is no
	// longer a prefix of the new one (docs/REPLICATION.md §8). Guarded
	// by mu; cleared together with dirty.
	trimmed map[int64]struct{}
	// version counts mutations of any series in the shard; it moves in
	// lockstep with the per-series versions. Guarded by mu.
	version uint64
}

// DB is the store.
type DB struct {
	// global coordinates whole-store operations with per-point mutators:
	// Write/WriteBatch/Retain share it (RLock) and proceed concurrently,
	// serializing only on their target shards; SnapshotDir/RestoreDir/
	// ExportLines take it exclusively, which both gives them a consistent
	// point-in-time view and keeps the multi-shard lock acquisition free
	// of reader/writer cycles (only one multi-shard holder can exist).
	global sync.RWMutex
	shards [NumShards]shard
	idx    tagIndex

	// window is the segment window length used by the dirty tracker and
	// the segmented persistence layer (segment.go). Set by Open and
	// SetSegmentWindow; read without a lock on the write path, so it
	// must not change while the store is shared.
	window time.Duration
	// snapDir/snapGen record the directory and manifest generation of
	// the store's last successful SnapshotDir, gating incremental
	// snapshots. Guarded by the exclusive global lock.
	snapDir string
	snapGen uint64

	// floor, when nonzero, makes Write and WriteBatch drop every point
	// whose timestamp is at or before it (SetWriteFloor). Like window it
	// is read without a lock on the write path, so it must not change
	// while the store is shared.
	floor time.Time

	// epoch counts whole-store replacements (Restore, RestoreDir).
	// Per-series versions restart from zero after a restore, so the
	// epoch is folded into every ViewStamp to keep stamps from before
	// and after a replacement distinct (docs/SERVING.md §2). Guarded by
	// the global lock (written only under the exclusive lock).
	epoch uint64

	// lazy is the shared state of a lazily opened directory — mapped
	// segment files, block cache, read-path counters (lazy.go). Nil
	// unless the store was restored with DirOptions.Lazy; written only
	// under the exclusive global lock.
	lazy *lazyStore
}

// shardFor routes a series key to its shard (FNV-1a).
func shardFor(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h % NumShards
}

// tagIndex is the inverted index: posting sets of series keys per
// measurement and per (measurement, tag, value). Queries intersect the
// smallest applicable posting set instead of scanning every series.
type tagIndex struct {
	mu sync.RWMutex
	// meas maps measurement -> set of series keys.
	meas map[string]map[string]struct{}
	// tag maps measurement \x00 tagKey \x00 tagValue -> set of series keys.
	tag map[string]map[string]struct{}
}

func tagPosting(measurement, k, v string) string {
	return measurement + "\x00" + k + "\x00" + v
}

func (ix *tagIndex) add(measurement string, tags map[string]string, key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.meas == nil {
		ix.meas = make(map[string]map[string]struct{})
		ix.tag = make(map[string]map[string]struct{})
	}
	addTo(ix.meas, measurement, key)
	for k, v := range tags {
		addTo(ix.tag, tagPosting(measurement, k, v), key)
	}
}

func (ix *tagIndex) remove(measurement string, tags map[string]string, key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removeFrom(ix.meas, measurement, key)
	for k, v := range tags {
		removeFrom(ix.tag, tagPosting(measurement, k, v), key)
	}
}

func addTo(m map[string]map[string]struct{}, posting, key string) {
	set, ok := m[posting]
	if !ok {
		set = make(map[string]struct{})
		m[posting] = set
	}
	set[key] = struct{}{}
}

func removeFrom(m map[string]map[string]struct{}, posting, key string) {
	if set, ok := m[posting]; ok {
		delete(set, key)
		if len(set) == 0 {
			delete(m, posting)
		}
	}
}

// candidates returns the series keys that may match (measurement,
// filter): the smallest posting set among the measurement's and each
// filter tag's. A filter tag with no posting at all means no series can
// match. ok=false reports that impossibility so callers can skip the
// shard walk entirely.
func (ix *tagIndex) candidates(measurement string, filter map[string]string) (keys []string, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	best, ok := ix.meas[measurement]
	if !ok {
		return nil, false
	}
	for k, v := range filter {
		set, ok := ix.tag[tagPosting(measurement, k, v)]
		if !ok {
			return nil, false
		}
		if len(set) < len(best) {
			best = set
		}
	}
	keys = make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	return keys, true
}

// measurementKeys returns all series keys of one measurement.
func (ix *tagIndex) measurementKeys(measurement string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := ix.meas[measurement]
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	return keys
}

func (ix *tagIndex) measurements() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.meas))
	for m := range ix.meas {
		out = append(out, m)
	}
	return out
}

func (ix *tagIndex) reset() {
	ix.mu.Lock()
	ix.meas = nil
	ix.tag = nil
	ix.mu.Unlock()
}

// Open returns an empty database with the default segment window
// (DefaultWindow; see SetSegmentWindow).
func Open() *DB {
	db := &DB{window: DefaultWindow}
	for i := range db.shards {
		db.shards[i].series = make(map[string]*Series)
	}
	return db
}

// insertPoint appends or inserts one point keeping the series time-ordered.
func insertPoint(s *Series, t time.Time, v float64) {
	p := Point{Time: t, Value: v}
	n := len(s.Points)
	if n == 0 || !s.Points[n-1].Time.After(t) {
		s.Points = append(s.Points, p)
		return
	}
	// Out-of-order write: insert at the right position.
	idx := sort.Search(n, func(i int) bool { return s.Points[i].Time.After(t) })
	s.Points = append(s.Points, Point{})
	copy(s.Points[idx+1:], s.Points[idx:])
	s.Points[idx] = p
}

// getOrCreate returns the series for key, creating (and indexing) it on
// first use. The caller must hold sh.mu.
func (db *DB) getOrCreate(sh *shard, key, measurement string, tags map[string]string) *Series {
	s, ok := sh.series[key]
	if !ok {
		s = &Series{Measurement: measurement, Tags: cloneTags(tags)}
		sh.series[key] = s
		db.idx.add(measurement, s.Tags, key)
	}
	return s
}

// SetWriteFloor makes the store drop, in Write and WriteBatch, every
// point whose timestamp is at or before t. A daemon that restores a
// snapshot and then deterministically replays its input from the
// beginning (tslpd restarting with the same seed) sets the floor to
// MaxTime() so the already-persisted prefix is not inserted a second
// time. Like SetSegmentWindow it must be called before the store is
// shared between goroutines; the zero time clears the floor.
func (db *DB) SetWriteFloor(t time.Time) {
	unlock := db.lockAll(true)
	defer unlock()
	db.floor = t
}

// MaxTime returns the latest point timestamp held by the store, or the
// zero time when the store is empty.
func (db *DB) MaxTime() time.Time {
	db.global.RLock()
	defer db.global.RUnlock()
	var max time.Time
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if s.lazy != nil {
				// Summaries carry the bound; no decode.
				if _, maxT, ok := s.lazy.timeBounds(); ok {
					if t := time.Unix(0, maxT).UTC(); t.After(max) {
						max = t
					}
				}
				continue
			}
			// Points are kept time-ordered, so the last one is the newest.
			if n := len(s.Points); n > 0 && s.Points[n-1].Time.After(max) {
				max = s.Points[n-1].Time
			}
		}
		sh.mu.RUnlock()
	}
	return max
}

// belowFloor reports whether a point at t must be dropped (SetWriteFloor).
func (db *DB) belowFloor(t time.Time) bool {
	return !db.floor.IsZero() && !t.After(db.floor)
}

// Write appends one point to the series identified by measurement and
// tags, creating the series on first write. Points at or below the
// write floor are dropped (SetWriteFloor).
func (db *DB) Write(measurement string, tags map[string]string, t time.Time, v float64) {
	db.global.RLock()
	defer db.global.RUnlock()
	if db.belowFloor(t) {
		return
	}
	key := Key(measurement, tags)
	sh := &db.shards[shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.getOrCreate(sh, key, measurement, tags)
	// A write into a lazy stub decodes it fully first; the mutable
	// insert path never sees block refs (docs/PERSISTENCE.md §9).
	s.materializeLocked()
	insertPoint(s, t, v)
	s.version++
	sh.version++
	db.markDirtyLocked(sh, t)
}

// BatchPoint is one point of a WriteBatch.
type BatchPoint struct {
	Measurement string
	Tags        map[string]string
	Time        time.Time
	Value       float64
}

// WriteBatch ingests a set of points acquiring each destination shard's
// lock once, instead of once per point. The probing modules use it to
// flush a whole round in one go. Points at or below the write floor are
// dropped (SetWriteFloor).
func (db *DB) WriteBatch(points []BatchPoint) {
	if len(points) == 0 {
		return
	}
	db.global.RLock()
	defer db.global.RUnlock()
	// Group by shard so each lock is taken exactly once per batch;
	// points at or below the write floor are dropped here.
	var byShard [NumShards][]int
	keys := make([]string, len(points))
	for i, p := range points {
		if db.belowFloor(p.Time) {
			continue
		}
		keys[i] = Key(p.Measurement, p.Tags)
		s := shardFor(keys[i])
		byShard[s] = append(byShard[s], i)
	}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.Lock()
		for _, i := range byShard[si] {
			p := points[i]
			s := db.getOrCreate(sh, keys[i], p.Measurement, p.Tags)
			s.materializeLocked()
			insertPoint(s, p.Time, p.Value)
			s.version++
			sh.version++
			db.markDirtyLocked(sh, p.Time)
		}
		sh.mu.Unlock()
	}
}

// SeriesCount returns the number of stored series.
func (db *DB) SeriesCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// PointCount returns the total number of stored points.
func (db *DB) PointCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if s.lazy != nil {
				n += s.lazy.points
				continue
			}
			n += len(s.Points)
		}
		sh.mu.RUnlock()
	}
	return n
}

// matches reports whether the series' tags include all of filter.
func (s *Series) matches(measurement string, filter map[string]string) bool {
	if s.Measurement != measurement {
		return false
	}
	for k, v := range filter {
		if s.Tags[k] != v {
			return false
		}
	}
	return true
}

// rangeCopy extracts the points of s within [from, to) as an independent
// Series, or ok=false when the range is empty. Lazy stubs prune blocks
// by summary and decode only survivors (lazy.go); both paths return
// identical points.
func (s *Series) rangeCopy(from, to time.Time) (Series, bool) {
	if s.lazy != nil {
		return s.lazyRangeCopy(from, to)
	}
	lo := sort.Search(len(s.Points), func(i int) bool { return !s.Points[i].Time.Before(from) })
	hi := sort.Search(len(s.Points), func(i int) bool { return !s.Points[i].Time.Before(to) })
	if lo >= hi {
		return Series{}, false
	}
	cp := Series{Measurement: s.Measurement, Tags: cloneTags(s.Tags), Points: make([]Point, hi-lo)}
	copy(cp.Points, s.Points[lo:hi])
	return cp, true
}

// Query returns, for every series of the measurement matching the tag
// filter, the points within [from, to). The returned series share no
// memory with the store. Candidate series come from the inverted index,
// so only keys that can match are visited.
func (db *DB) Query(measurement string, filter map[string]string, from, to time.Time) []Series {
	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return nil
	}
	out := db.collect(keys, measurement, filter, from, to)
	sort.Slice(out, func(i, j int) bool {
		return Key(out[i].Measurement, out[i].Tags) < Key(out[j].Measurement, out[j].Tags)
	})
	return out
}

// collect visits the candidate keys shard by shard (one lock acquisition
// per shard) and extracts the matching ranges.
func (db *DB) collect(keys []string, measurement string, filter map[string]string, from, to time.Time) []Series {
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	var out []Series
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
			if cp, ok := s.rangeCopy(from, to); ok {
				out = append(out, cp)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// queryScan is the pre-index full-scan implementation, kept as the
// reference the indexed path is benchmarked and equivalence-tested
// against.
func (db *DB) queryScan(measurement string, filter map[string]string, from, to time.Time) []Series {
	var out []Series
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if !s.matches(measurement, filter) {
				continue
			}
			if cp, ok := s.rangeCopy(from, to); ok {
				out = append(out, cp)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return Key(out[i].Measurement, out[i].Tags) < Key(out[j].Measurement, out[j].Tags)
	})
	return out
}

// TagValues returns the sorted distinct values of a tag across a
// measurement (e.g. all link ids with TSLP data). Only the measurement's
// own series are visited.
func (db *DB) TagValues(measurement, tag string) []string {
	keys := db.idx.measurementKeys(measurement)
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	set := map[string]bool{}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		for _, k := range byShard[si] {
			if s, ok := sh.series[k]; ok {
				if v, ok := s.Tags[tag]; ok {
					set[v] = true
				}
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Measurements returns the sorted distinct measurement names.
func (db *DB) Measurements() []string {
	out := db.idx.measurements()
	sort.Strings(out)
	return out
}

// Agg selects the aggregation function for Downsample.
type Agg int

// The aggregation functions understood by Downsample.
const (
	// Min keeps the smallest value in each bin (the paper's choice for
	// RTT level-shift analysis: minimum RTT tracks baseline latency).
	Min Agg = iota
	// Mean averages the bin's values.
	Mean
	// Max keeps the largest value in each bin.
	Max
	// Count reports how many points fell in the bin.
	Count
)

// Downsample buckets points into fixed bins aligned to start and applies
// the aggregate. Empty bins yield NaN (or 0 for Count). The result has
// exactly n bins.
func Downsample(points []Point, start time.Time, bin time.Duration, n int, agg Agg) []Point {
	out := make([]Point, n)
	type acc struct {
		min, max, sum float64
		n             int
	}
	accs := make([]acc, n)
	for i := range accs {
		accs[i].min = math.Inf(1)
		accs[i].max = math.Inf(-1)
	}
	for _, p := range points {
		idx := int(p.Time.Sub(start) / bin)
		if idx < 0 || idx >= n {
			continue
		}
		a := &accs[idx]
		if p.Value < a.min {
			a.min = p.Value
		}
		if p.Value > a.max {
			a.max = p.Value
		}
		a.sum += p.Value
		a.n++
	}
	for i := range out {
		out[i].Time = start.Add(time.Duration(i) * bin)
		a := accs[i]
		switch agg {
		case Count:
			out[i].Value = float64(a.n)
		case Min:
			if a.n == 0 {
				out[i].Value = math.NaN()
			} else {
				out[i].Value = a.min
			}
		case Max:
			if a.n == 0 {
				out[i].Value = math.NaN()
			} else {
				out[i].Value = a.max
			}
		case Mean:
			if a.n == 0 {
				out[i].Value = math.NaN()
			} else {
				out[i].Value = a.sum / float64(a.n)
			}
		}
	}
	return out
}

// Retain drops every point outside [from, to) and removes series left
// empty. Long-running collection daemons call it to bound memory; the
// deployed system similarly aged raw data out of InfluxDB. It returns the
// number of points dropped.
func (db *DB) Retain(from, to time.Time) int {
	db.global.RLock()
	defer db.global.RUnlock()
	dropped := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for key, s := range sh.series {
			if s.lazy != nil {
				// Summaries decide for free when the trim is a no-op —
				// the common case for a serving-tier store inside its
				// retention horizon; only a series actually losing
				// points pays for materialization.
				if minT, maxT, ok := s.lazy.timeBounds(); ok &&
					minT >= from.UnixNano() && maxT < to.UnixNano() {
					continue
				}
				s.materializeLocked()
			}
			lo := sort.Search(len(s.Points), func(i int) bool { return !s.Points[i].Time.Before(from) })
			hi := sort.Search(len(s.Points), func(i int) bool { return !s.Points[i].Time.Before(to) })
			dropped += len(s.Points) - (hi - lo)
			if hi-lo < len(s.Points) {
				// The series loses points: its version must move so
				// cached views over it invalidate (docs/SERVING.md §2).
				s.version++
				sh.version++
			}
			// Windows losing points must be rewritten (or deleted) by
			// the next incremental snapshot — and never append-extended,
			// since their on-disk payload stops being a prefix.
			for _, p := range s.Points[:lo] {
				db.markDirtyLocked(sh, p.Time)
				db.markTrimmedLocked(sh, p.Time)
			}
			for _, p := range s.Points[hi:] {
				db.markDirtyLocked(sh, p.Time)
				db.markTrimmedLocked(sh, p.Time)
			}
			if hi <= lo {
				delete(sh.series, key)
				db.idx.remove(s.Measurement, s.Tags, key)
				continue
			}
			kept := make([]Point, hi-lo)
			copy(kept, s.Points[lo:hi])
			s.Points = kept
		}
		sh.mu.Unlock()
	}
	return dropped
}

// lockAll freezes the whole store for a consistent point-in-time view:
// the exclusive global lock keeps every mutator out (they all hold the
// global read lock while working), so no per-shard locks are needed and
// no multi-shard acquisition cycle can form. When write is true the
// shard write locks are additionally taken, excluding concurrent readers
// too — Restore needs that because it replaces the shard maps.
func (db *DB) lockAll(write bool) (unlock func()) {
	db.global.Lock()
	if write {
		for i := range db.shards {
			db.shards[i].mu.Lock()
		}
	}
	return func() {
		if write {
			for i := range db.shards {
				db.shards[i].mu.Unlock()
			}
		}
		db.global.Unlock()
	}
}

// Digest is the canonical whole-store fingerprint: FNV-64a over every
// series in sorted key order, each point contributing its Unix-nanosecond
// timestamp and bit-exact value. Two stores with equal digests hold the
// same data in the same per-series order — eager and lazy restores and
// compaction are proven content-preserving against it (docs/PERSISTENCE.md
// §7), and the campaign determinism tests rely on the same construction.
func (db *DB) Digest() uint64 {
	unlock := db.lockAll(false)
	defer unlock()
	var keys []string
	byKey := make(map[string]*Series)
	for i := range db.shards {
		for k, s := range db.shards[i].series {
			keys = append(keys, k)
			byKey[k] = s
		}
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		s := byKey[k]
		fmt.Fprintf(h, "%s\n", k)
		if s.lazy != nil {
			// Transient decode through the block cache: the digest of a
			// lazy store must equal its eager twin's (the §9 oracle)
			// without permanently materializing anything.
			l := s.lazy
			for i := range l.blocks {
				d := l.store.decode(&l.blocks[i])
				for j := range d.times {
					fmt.Fprintf(h, "%d %d\n", d.times[j], math.Float64bits(d.values[j]))
				}
			}
			continue
		}
		for _, p := range s.Points {
			fmt.Fprintf(h, "%d %d\n", p.Time.UnixNano(), math.Float64bits(p.Value))
		}
	}
	return h.Sum64()
}

func cloneTags(t map[string]string) map[string]string {
	out := make(map[string]string, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}
