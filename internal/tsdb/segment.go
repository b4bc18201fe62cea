package tsdb

// Segmented on-disk persistence: the store persists as one file per
// (shard, time window) pair plus a manifest, the way InfluxDB's TSM
// engine persists the deployed system's backend (§3 of the paper) —
// retention becomes a file delete and snapshot/restore parallelizes
// over segments.
//
// The segment file format implemented here is specified normatively in
// docs/PERSISTENCE.md; the constants below mirror its §2 and tests cite
// the doc section they enforce.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"interdomain/internal/pipeline"
	"interdomain/internal/tsdb/blockenc"
)

const (
	// SegmentMagic opens every segment file (docs/PERSISTENCE.md §2,
	// field 1). Eight bytes so a corrupt or foreign file fails fast.
	SegmentMagic = "ITSDBSEG"

	// SegmentVersion is the one segment format version this package
	// writes and reads: columnar per-series blocks of delta-of-delta
	// varint timestamps and Gorilla XOR-compressed values
	// (docs/PERSISTENCE.md §8), with a per-block Sum summary field
	// enabling aggregate pushdown (docs/PERSISTENCE.md §10). A header
	// carrying any other version is a descriptive error wrapping
	// ErrSegmentVersion, never a silent skip (docs/PERSISTENCE.md §2,
	// "Versioning").
	SegmentVersion = 3

	// segmentHeaderSize is the fixed byte length of the header laid out
	// in docs/PERSISTENCE.md §2: magic(8) + version(4) + shard(4) +
	// windowStart(8) + windowEnd(8) + series(4) + points(8) +
	// payloadLen(8) + crc(4).
	segmentHeaderSize = 8 + 4 + 4 + 8 + 8 + 4 + 8 + 8 + 4

	// segmentSuffix is the extension of segment files.
	segmentSuffix = ".seg"

	// tmpSuffix marks in-flight files; they are invisible to RestoreDir
	// and reaped by the next SnapshotDir (docs/PERSISTENCE.md §4).
	tmpSuffix = ".tmp"
)

// DefaultWindow is the segment window length used by Open: one UTC day,
// matching both the queries the analysis layer runs (day-link windows)
// and the retention granularity the deployed system used.
const DefaultWindow = 24 * time.Hour

// crcTable is the Castagnoli table shared by all segment writers and
// readers (docs/PERSISTENCE.md §2, field 9).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSegmentVersion is wrapped by every "segment header carries a
// version other than SegmentVersion" error, so readers that must
// distinguish a version-skewed directory from plain corruption can
// errors.Is against it (docs/PERSISTENCE.md §2, "Versioning").
var ErrSegmentVersion = errors.New("unsupported segment format version")

// DirOptions configures SnapshotDir and RestoreDir.
type DirOptions struct {
	// Workers bounds the concurrent segment encoders (SnapshotDir) or
	// the concurrent segment openers and per-shard decoders
	// (RestoreDir). 0 means one per CPU; 1 runs fully sequentially on
	// the calling goroutine.
	Workers int
	// Incremental lets SnapshotDir rewrite only segments whose (shard,
	// window) was touched since the store's previous snapshot into the
	// same directory, reusing the rest byte-for-byte. It silently falls
	// back to a full snapshot when the directory does not match the
	// store's bookkeeping (first snapshot, foreign directory, or a
	// RetainDir ran in between).
	Incremental bool
	// Lazy chooses what RestoreDir leaves resident. Every restore maps,
	// verifies and indexes the committed segments into block-index
	// stubs; without Lazy it then decodes every stub into Points (each
	// block verified against its summary) and releases the mappings.
	// With Lazy the stubs stay: queries decode only the blocks that
	// survive summary pruning, on demand, through a small LRU
	// (docs/PERSISTENCE.md §9). Reads are byte-identical either way. A
	// store already lazy over the same directory reuses held segments,
	// making a repeat RestoreDir (a follower hot-swap) O(changed
	// segments). Ignored by SnapshotDir.
	Lazy bool
	// BlockCacheBytes bounds the decoded-block LRU a lazy restore
	// installs by the bytes its decoded columns occupy
	// (docs/PERSISTENCE.md §10.3); 0 means DefaultBlockCacheBytes.
	// Ignored unless Lazy.
	BlockCacheBytes int64
}

// DirStats reports what a SnapshotDir call did.
type DirStats struct {
	// Segments is the number of segment files the directory now holds.
	Segments int
	// Written is how many of those were (re)written by this call.
	Written int
	// Reused is how many were carried over unchanged (incremental path).
	Reused int
	// Removed is the number of segment files deleted: replaced and stale
	// files of the previous generation (deleted after the manifest
	// commit) plus reaped leftovers of crashed attempts.
	Removed int
	// Series is the store's series count at snapshot time.
	Series int
	// Points is the store's point count at snapshot time.
	Points int
	// Generation is the manifest generation this call published.
	Generation uint64
}

// windowStartNanos floors t to its window's inclusive lower bound in
// Unix nanoseconds. Floor division keeps pre-1970 timestamps in the
// correct window.
func windowStartNanos(t time.Time, window time.Duration) int64 {
	ns, w := t.UnixNano(), int64(window)
	k := ns / w
	if ns%w < 0 {
		k--
	}
	return k * w
}

// segmentFileName is the canonical segment file name for a (shard,
// window) pair written at manifest generation gen:
// "seg-SS-<windowStartNanos>-g<gen>.seg". The manifest, not the name,
// binds a file to its identity (docs/PERSISTENCE.md §3) — but the
// generation suffix is load-bearing for crash safety: a writer never
// renames over a previous generation's file, so every file the
// committed manifest references stays intact until a NEW manifest that
// no longer references it has been published (docs/PERSISTENCE.md §4).
func segmentFileName(shard int, winStart int64, gen uint64) string {
	return fmt.Sprintf("seg-%02d-%d-g%d%s", shard, winStart, gen, segmentSuffix)
}

// parseSegmentGen extracts the generation from a segment file name. A
// name without a parseable "-g<gen>" suffix (gen >= 1) reports ok =
// false; readers must then treat the file as corruption, not as a
// leftover (docs/PERSISTENCE.md §4).
func parseSegmentGen(name string) (gen uint64, ok bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	base := strings.TrimSuffix(name, segmentSuffix)
	i := strings.LastIndex(base, "-g")
	if i < 0 {
		return 0, false
	}
	gen, err := strconv.ParseUint(base[i+2:], 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

// segPlan is one segment to persist: the series slices (views into the
// store, valid only while the snapshot holds the store lock) falling
// into one (shard, window span). Freshly planned segments span exactly
// one window; rewrites of compacted segments keep the merged span
// (docs/PERSISTENCE.md §8.4).
type segPlan struct {
	shard    int
	winStart int64
	winEnd   int64
	level    int
	series   []*Series // point slices alias the store; time-ascending per key
	points   int
	meta     SegmentMeta // filled by the encoder
	// prev, when set, is the committed predecessor segment for the same
	// (shard, window span) whose windows were dirtied by inserts only:
	// the encoder may append-extend it — reuse its payload bytes as a
	// verbatim prefix and encode only the appended tail — recording the
	// splice point in the manifest's append cursor
	// (docs/REPLICATION.md §8). Nil forces a full re-encode.
	prev *SegmentMeta
}

// SetSegmentWindow changes the segment window length used by the dirty
// tracker, SnapshotDir and windows of future segments. It must be
// called before the store is shared between goroutines (typically right
// after Open); it resets all persistence bookkeeping, so the next
// incremental snapshot falls back to a full one.
func (db *DB) SetSegmentWindow(window time.Duration) {
	if window <= 0 {
		window = DefaultWindow
	}
	unlock := db.lockAll(true)
	defer unlock()
	db.window = window
	db.resetPersistenceLocked()
}

// resetPersistenceLocked clears dirty-window sets and the last-snapshot
// bookkeeping. Callers must hold the exclusive global lock.
func (db *DB) resetPersistenceLocked() {
	for i := range db.shards {
		db.shards[i].dirty = nil
		db.shards[i].trimmed = nil
	}
	db.snapDir = ""
	db.snapGen = 0
}

// markDirtyLocked records that the shard's window containing t changed.
// Callers must hold sh.mu.
func (db *DB) markDirtyLocked(sh *shard, t time.Time) {
	win := windowStartNanos(t, db.window)
	if sh.dirty == nil {
		sh.dirty = make(map[int64]struct{})
	}
	sh.dirty[win] = struct{}{}
}

// markTrimmedLocked records that the shard's window containing t lost
// points, disqualifying it from append-extend persistence until the
// next snapshot (docs/REPLICATION.md §8). Callers must hold sh.mu.
func (db *DB) markTrimmedLocked(sh *shard, t time.Time) {
	win := windowStartNanos(t, db.window)
	if sh.trimmed == nil {
		sh.trimmed = make(map[int64]struct{})
	}
	sh.trimmed[win] = struct{}{}
}

// planSegments splits every series' points by window and groups the
// slices per (shard, window). The returned plans alias store memory;
// the caller must hold the store lock until encoding finishes.
func (db *DB) planSegments() []*segPlan {
	w := db.window
	plans := make(map[[2]int64]*segPlan)
	var order [][2]int64
	for si := range db.shards {
		keys := make([]string, 0, len(db.shards[si].series))
		for k := range db.shards[si].series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := db.shards[si].series[k]
			pts := s.Points
			for len(pts) > 0 {
				win := windowStartNanos(pts[0].Time, w)
				end := win + int64(w)
				hi := sort.Search(len(pts), func(i int) bool { return pts[i].Time.UnixNano() >= end })
				id := [2]int64{int64(si), win}
				p, ok := plans[id]
				if !ok {
					p = &segPlan{shard: si, winStart: win, winEnd: win + int64(w)}
					plans[id] = p
					order = append(order, id)
				}
				p.series = append(p.series, &Series{Measurement: s.Measurement, Tags: s.Tags, Points: pts[:hi]})
				p.points += hi
				pts = pts[hi:]
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	out := make([]*segPlan, len(order))
	for i, id := range order {
		out[i] = plans[id]
	}
	return out
}

// keyColumns is one series key's points gathered from store series
// slices as raw columns.
type keyColumns struct {
	key         string
	measurement string
	tags        map[string]string
	times       []int64
	values      []float64
}

// groupByKey gathers store series slices into one keyColumns per
// distinct key, points concatenated in slice order (callers keep
// per-key slices time-ascending), sorted by key so identical content
// encodes to identical bytes.
func groupByKey(list []*Series) []*keyColumns {
	byKey := make(map[string]*keyColumns)
	var keys []string
	for _, s := range list {
		key := Key(s.Measurement, s.Tags)
		c, ok := byKey[key]
		if !ok {
			c = &keyColumns{key: key, measurement: s.Measurement, tags: s.Tags}
			byKey[key] = c
			keys = append(keys, key)
		}
		for _, pt := range s.Points {
			c.times = append(c.times, pt.Time.UnixNano())
			c.values = append(c.values, pt.Value)
		}
	}
	sort.Strings(keys)
	out := make([]*keyColumns, len(keys))
	for i, key := range keys {
		out[i] = byKey[key]
	}
	return out
}

// toBlockSeries converts store series slices into the canonical
// payload form: one blockenc.Series per distinct key (groupByKey).
func toBlockSeries(list []*Series) []blockenc.Series {
	cols := groupByKey(list)
	out := make([]blockenc.Series, len(cols))
	for i, c := range cols {
		out[i] = blockenc.Series{Measurement: c.measurement, Tags: c.tags, Blocks: blockenc.BuildBlocks(c.times, c.values)}
	}
	return out
}

// writeSegmentFile writes one segment file (docs/PERSISTENCE.md §2)
// under a temp name, fsyncs it, renames it into its gen-qualified
// place, and returns its manifest entry. It never touches a previous
// generation's file; until a manifest referencing the new name is
// published, the file is an inert leftover (docs/PERSISTENCE.md §4).
func writeSegmentFile(dir string, gen uint64, shard int, winStart, winEnd int64, seriesCount, points, level int, payload []byte) (SegmentMeta, error) {
	name := segmentFileName(shard, winStart, gen)
	crc := crc32.Checksum(payload, crcTable)

	hdr := make([]byte, 0, segmentHeaderSize)
	hdr = append(hdr, SegmentMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, SegmentVersion)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(shard))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(winStart))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(winEnd))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(seriesCount))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(points))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc)

	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.Create(tmp)
	if err != nil {
		return SegmentMeta{}, fmt.Errorf("tsdb: create segment: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		// Content must be durable before the rename can be: a rename
		// surviving power loss without its bytes would give a committed
		// manifest a bad segment (docs/PERSISTENCE.md §4).
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return SegmentMeta{}, fmt.Errorf("tsdb: write segment %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return SegmentMeta{}, fmt.Errorf("tsdb: close segment %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return SegmentMeta{}, fmt.Errorf("tsdb: publish segment %s: %w", name, err)
	}
	return SegmentMeta{
		File:        name,
		Shard:       shard,
		WindowStart: winStart,
		WindowEnd:   winEnd,
		Series:      seriesCount,
		Points:      points,
		CRC:         crc,
		Level:       level,
	}, nil
}

// appendExtendMaxFragmentation bounds how many payload entries an
// append-extended segment may accumulate per distinct series key before
// the encoder forces a full re-encode. Every append-extend generation
// adds up to one entry per appended key (duplicates merge on read,
// docs/PERSISTENCE.md §8.1), so without a cap a hot window extended
// every tick would make structural decodes linear in tick count.
const appendExtendMaxFragmentation = 64

// appendExtendSegment tries to persist a dirty-span plan by reusing the
// committed predecessor's payload bytes as a verbatim prefix and
// encoding only the newly appended points as extra entries — the
// sub-segment checkpoint the delta-shipping protocol rides on
// (docs/REPLICATION.md §8). It reports ok = false whenever the plan is
// not a pure append of the predecessor (backfill, changed keys,
// excessive fragmentation, or any read error), in
// which case the caller falls back to the full encoder. On success the
// returned meta carries the append cursor: the byte offset into the new
// payload where the appended entries begin.
func appendExtendSegment(dir string, gen uint64, p *segPlan) (SegmentMeta, bool) {
	prev := *p.prev
	payload, err := loadSegmentPayload(dir, prev)
	if err != nil {
		return SegmentMeta{}, false
	}
	oldList, err := decodeBlockPayload(payload, prev)
	if err != nil {
		return SegmentMeta{}, false
	}
	_, headLen, err := blockenc.PayloadHead(payload)
	if err != nil {
		return SegmentMeta{}, false
	}

	// Aggregate the old payload per key: entry duplicates from earlier
	// append-extends merge here in payload order, exactly as every
	// reader merges them.
	type oldAgg struct {
		count int
		maxT  int64
	}
	old := make(map[string]*oldAgg, len(oldList))
	for i := range oldList {
		s := &oldList[i]
		key := Key(s.Measurement, s.Tags)
		a, ok := old[key]
		if !ok {
			a = &oldAgg{maxT: math.MinInt64}
			old[key] = a
		}
		for _, b := range s.Blocks {
			a.count += b.Count
			if b.MaxT > a.maxT {
				a.maxT = b.MaxT
			}
		}
	}
	if len(oldList) >= appendExtendMaxFragmentation*len(old) {
		return SegmentMeta{}, false
	}

	// Group the plan's slices per key like toBlockSeries, keeping raw
	// columns so each key's appended tail can be cut out.
	cols := groupByKey(p.series)

	// The pure-append proof: store writes are insert-only and no window
	// of this span was trimmed since the previous snapshot (segPlan.prev
	// is only set then), so a key's persisted prefix is unchanged exactly
	// when the number of points at or before its old last timestamp still
	// equals its old count — any insert at or before that timestamp moves
	// the count past it.
	appended := make([]blockenc.Series, 0, len(cols))
	tail := 0
	for _, c := range cols {
		o, ok := old[c.key]
		if !ok {
			// A key new to this window: its whole column is appended.
			appended = append(appended, blockenc.Series{
				Measurement: c.measurement, Tags: c.tags,
				Blocks: blockenc.BuildBlocks(c.times, c.values),
			})
			tail += len(c.times)
			continue
		}
		idx := sort.Search(len(c.times), func(i int) bool { return c.times[i] > o.maxT })
		if idx != o.count {
			return SegmentMeta{}, false
		}
		if idx < len(c.times) {
			appended = append(appended, blockenc.Series{
				Measurement: c.measurement, Tags: c.tags,
				Blocks: blockenc.BuildBlocks(c.times[idx:], c.values[idx:]),
			})
			tail += len(c.times) - idx
		}
		delete(old, c.key)
	}
	if len(old) != 0 || tail == 0 {
		// A key vanished from the window, or nothing was appended at
		// all: neither is a pure append worth a cursor.
		return SegmentMeta{}, false
	}

	// Assemble: new entry count, old entries region verbatim, appended
	// entries. The cursor marks where the verbatim prefix ends.
	oldEntries := payload[headLen:]
	newCount := len(oldList) + len(appended)
	out := binary.AppendUvarint(make([]byte, 0, len(payload)+64+32*tail), uint64(newCount))
	cursor := int64(len(out) + len(oldEntries))
	out = append(out, oldEntries...)
	for _, s := range appended {
		out = blockenc.AppendSeries(out, s)
	}
	meta, err := writeSegmentFile(dir, gen, p.shard, p.winStart, p.winEnd, newCount, p.points, p.level, out)
	if err != nil {
		return SegmentMeta{}, false
	}
	meta.AppendCursor = cursor
	return meta, true
}

// encodeSegment encodes a plan's payload, writes the segment file, and
// fills p.meta. A plan carrying an append-extend candidate
// (segPlan.prev) tries the cheap path first and falls back to the full
// encoder whenever it does not apply.
func encodeSegment(dir string, gen uint64, p *segPlan) error {
	if p.prev != nil {
		if meta, ok := appendExtendSegment(dir, gen, p); ok {
			p.meta = meta
			return nil
		}
	}
	bs := toBlockSeries(p.series)
	meta, err := writeSegmentFile(dir, gen, p.shard, p.winStart, p.winEnd, len(bs), p.points, p.level, blockenc.EncodePayload(bs))
	if err != nil {
		return err
	}
	p.meta = meta
	return nil
}

// SnapshotDir persists the whole store into dir as one segment file per
// (shard, time window) plus a manifest, encoding segments concurrently
// on an internal/pipeline pool. With opts.Incremental it rewrites only
// windows dirtied since the previous SnapshotDir into the same dir and
// deletes windows that no longer hold data; otherwise (and whenever the
// directory does not match the store's bookkeeping) every segment is
// written. The manifest rename is the commit point: every file of the
// committed snapshot is left untouched until a new manifest no longer
// referencing it has been published, so a crash — or an error return —
// at any moment leaves the previous snapshot fully restorable
// (docs/PERSISTENCE.md §4).
func (db *DB) SnapshotDir(dir string, opts DirOptions) (DirStats, error) {
	var st DirStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}

	unlock := db.lockAll(false)
	defer unlock()

	// Segment planning walks raw Points, so a lazily open store is
	// fully materialized first — snapshots must not depend on open mode
	// (docs/PERSISTENCE.md §9).
	db.materializeAllLocked()

	// The on-disk manifest is the directory's commit record; read it
	// first so committed segments can be told apart from leftovers of a
	// crashed attempt.
	prev, prevErr := readManifest(dir) // fails on the first snapshot into dir
	listed := make(map[string]bool)
	if prevErr == nil {
		for _, sm := range prev.Segments {
			listed[sm.File] = true
		}
	}

	// Reap leftovers from a crashed writer: .tmp files and segment files
	// the committed manifest does not reference (docs/PERSISTENCE.md §4).
	// Reaping unlisted segments up front also guarantees this attempt's
	// generation-qualified names are free.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), tmpSuffix):
			os.Remove(filepath.Join(dir, e.Name()))
		case strings.HasSuffix(e.Name(), segmentSuffix):
			if !listed[e.Name()] {
				if os.Remove(filepath.Join(dir, e.Name())) == nil {
					st.Removed++
				}
				continue
			}
			onDisk[e.Name()] = true
		}
	}

	// Decide the snapshot mode, the reusable entries, and this attempt's
	// generation (segment file names embed it, so it is fixed up front).
	incremental := opts.Incremental && db.snapDir == dir && db.snapGen > 0 &&
		prevErr == nil && prev.Generation == db.snapGen && prev.WindowNanos == int64(db.window)

	// Committed segments may span several base windows after compaction
	// (docs/PERSISTENCE.md §8.4), so incremental reuse works per span:
	// map every base window a previous segment covers back to it, reuse
	// the segment whole when none of its windows is dirty, and rewrite
	// it as one merged plan over the same span otherwise — compaction
	// stays sticky across snapshots.
	var prevSegs []SegmentMeta
	covered := make(map[[2]int64]int)
	var spanDirty []bool
	if incremental {
		for _, sm := range prev.Segments {
			if !onDisk[sm.File] {
				continue
			}
			i := len(prevSegs)
			prevSegs = append(prevSegs, sm)
			dirty := false
			for win := sm.WindowStart; win < sm.WindowEnd; win += prev.WindowNanos {
				covered[[2]int64{int64(sm.Shard), win}] = i
				if _, ok := db.shards[sm.Shard].dirty[win]; ok {
					dirty = true
				}
			}
			spanDirty = append(spanDirty, dirty)
		}
	}
	gen := uint64(1)
	if prevErr == nil {
		gen = prev.Generation + 1
	}

	plans := db.planSegments()
	var toWrite []*segPlan
	usedPrev := make(map[int]bool)
	rewrite := make(map[int]*segPlan)
	next := &Manifest{Version: ManifestVersion, Generation: gen, WindowNanos: int64(db.window)}
	for _, p := range plans {
		i, ok := covered[[2]int64{int64(p.shard), p.winStart}]
		if !ok {
			toWrite = append(toWrite, p)
			continue
		}
		sm := prevSegs[i]
		if !spanDirty[i] {
			if !usedPrev[i] {
				usedPrev[i] = true
				next.Segments = append(next.Segments, sm)
				st.Reused++
				st.Points += sm.Points
			}
			continue
		}
		// Dirty span: fold this base window's plan into the span's single
		// rewrite plan. Plans arrive in ascending window order, so each
		// key's points stay time-ordered across the merged span.
		g, ok := rewrite[i]
		if !ok {
			g = &segPlan{shard: p.shard, winStart: sm.WindowStart, winEnd: sm.WindowEnd, level: sm.Level}
			// Insert-only dirt makes the span a candidate for an
			// append-extend of its committed predecessor; any trimmed
			// window in the span forces a full re-encode because the old
			// payload stops being a prefix (docs/REPLICATION.md §8).
			trimmedSpan := false
			for win := sm.WindowStart; win < sm.WindowEnd; win += prev.WindowNanos {
				if _, ok := db.shards[sm.Shard].trimmed[win]; ok {
					trimmedSpan = true
				}
			}
			if !trimmedSpan {
				smCopy := sm
				g.prev = &smCopy
			}
			rewrite[i] = g
			toWrite = append(toWrite, g)
		}
		g.series = append(g.series, p.series...)
		g.points += p.points
	}

	// Encode the dirty segments concurrently; the plans alias store
	// memory, which is safe because the store lock is held throughout.
	// On error the files already renamed into place are unreferenced
	// gen-qualified leftovers — invisible to RestoreDir, reaped by the
	// next SnapshotDir — and the committed snapshot is untouched.
	pool := pipeline.NewPool(opts.Workers)
	defer pool.Close()
	jobs := make([]func() error, len(toWrite))
	for i, p := range toWrite {
		p := p
		jobs[i] = func() error { return encodeSegment(dir, gen, p) }
	}
	if err := pool.DoErr(jobs...); err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}
	for _, p := range toWrite {
		next.Segments = append(next.Segments, p.meta)
		st.Written++
		st.Points += p.points
	}

	for i := range db.shards {
		next.StoreSeries += len(db.shards[i].series)
	}
	next.TotalPoints = st.Points

	// Commit point: the new manifest makes this snapshot the directory's
	// committed state.
	if err := writeManifest(dir, next); err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}

	// Only now are the previous generation's replaced and stale files
	// dead; delete them best-effort — a failure just leaves a leftover
	// for the next call to reap.
	dead := make(map[string]bool, len(onDisk))
	for name := range onDisk {
		dead[name] = true
	}
	for _, sm := range next.Segments {
		delete(dead, sm.File)
	}
	for name := range dead {
		if os.Remove(filepath.Join(dir, name)) == nil {
			st.Removed++
		}
	}

	// Success: future incremental snapshots may trust the directory.
	db.snapDir = dir
	db.snapGen = gen
	for i := range db.shards {
		db.shards[i].dirty = nil
		db.shards[i].trimmed = nil
	}
	st.Segments = len(next.Segments)
	st.Series = next.StoreSeries
	st.Generation = gen
	return st, nil
}

// verifySegmentBytes checks a segment file's bytes against its
// manifest entry — header length, magic, version, identity fields,
// payload length, CRC-32C (docs/PERSISTENCE.md §2, reader
// obligations) — and returns the payload. The payload decode and the
// decoded-count checks stay with the caller; VerifySegmentFile and
// RestoreDir share everything up to that point.
func verifySegmentBytes(data []byte, sm SegmentMeta) ([]byte, error) {
	if len(data) < segmentHeaderSize {
		return nil, fmt.Errorf("tsdb: segment %s: truncated header (%d bytes)", sm.File, len(data))
	}
	if string(data[:8]) != SegmentMagic {
		return nil, fmt.Errorf("tsdb: segment %s: bad magic %q", sm.File, data[:8])
	}
	if err := checkSegmentVersion(data); err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: %w", sm.File, err)
	}
	shard := int(binary.BigEndian.Uint32(data[12:16]))
	winStart := int64(binary.BigEndian.Uint64(data[16:24]))
	winEnd := int64(binary.BigEndian.Uint64(data[24:32]))
	series := int(binary.BigEndian.Uint32(data[32:36]))
	points := int(binary.BigEndian.Uint64(data[36:44]))
	payloadLen := int(binary.BigEndian.Uint64(data[44:52]))
	crc := binary.BigEndian.Uint32(data[52:56])
	if shard != sm.Shard || winStart != sm.WindowStart || winEnd != sm.WindowEnd ||
		series != sm.Series || points != sm.Points || crc != sm.CRC {
		return nil, fmt.Errorf("tsdb: segment %s: header disagrees with manifest entry", sm.File)
	}
	payload := data[segmentHeaderSize:]
	if len(payload) != payloadLen {
		return nil, fmt.Errorf("tsdb: segment %s: truncated payload (%d of %d bytes)", sm.File, len(payload), payloadLen)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("tsdb: segment %s: checksum mismatch (got %08x, want %08x)", sm.File, got, crc)
	}
	return payload, nil
}

// checkSegmentVersion rejects a segment header whose version field
// (docs/PERSISTENCE.md §2, field 2) is not SegmentVersion. The caller
// has already checked the header's length and magic.
func checkSegmentVersion(hdr []byte) error {
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != SegmentVersion {
		return fmt.Errorf("%w %d (only version %d is read, see docs/PERSISTENCE.md §2)", ErrSegmentVersion, v, SegmentVersion)
	}
	return nil
}

// loadSegmentPayload reads one segment file from disk and verifies it
// against its manifest entry, returning the raw payload without
// decoding it. RetainDir's block-level boundary trim, CompactDir's
// zero-decode merge and the append-extend snapshot path start here.
func loadSegmentPayload(dir string, sm SegmentMeta) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, sm.File))
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: %w", sm.File, err)
	}
	return verifySegmentBytes(data, sm)
}

// decodeBlockPayload structurally decodes a payload and cross-checks
// the series and (summary) point counts against the manifest entry.
// Blocks stay encoded — callers that only reorganize blocks
// (compaction, retention trim) never pay for a point decode
// (docs/PERSISTENCE.md §8).
func decodeBlockPayload(payload []byte, sm SegmentMeta) ([]blockenc.Series, error) {
	list, err := blockenc.DecodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: decode: %w", sm.File, err)
	}
	n := 0
	for _, s := range list {
		for _, b := range s.Blocks {
			n += b.Count
		}
	}
	if len(list) != sm.Series || n != sm.Points {
		return nil, fmt.Errorf("tsdb: segment %s: payload holds %d series/%d points, header says %d/%d", sm.File, len(list), n, sm.Series, sm.Points)
	}
	return list, nil
}

// loadCommittedDir reads and validates a directory's committed state:
// the manifest plus the check that every on-disk segment is either
// listed by it or an ignorable other-generation leftover
// (docs/PERSISTENCE.md §4, §5). RestoreDir starts here.
func loadCommittedDir(dir string) (*Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) || listed[name] {
			continue
		}
		// An unlisted segment carrying a generation other than the
		// committed one is a leftover from an interrupted snapshot or
		// retention pass: ignored like a .tmp file, reaped by the next
		// writer (docs/PERSISTENCE.md §4). Anything else unlisted is
		// corruption, never skipped silently.
		if gen, ok := parseSegmentGen(name); ok && gen != m.Generation {
			continue
		}
		return nil, fmt.Errorf("segment %s present on disk but not in the manifest", name)
	}
	return m, nil
}

// RetainDir ages a segment directory out in place: every segment whose
// window ends at or before olderThan is dropped without being decoded,
// the one boundary window containing olderThan is decoded, trimmed and
// rewritten, and the manifest is republished with a bumped generation.
// Surviving segments past the boundary are not read at all. It returns
// the number of segment files removed and points dropped. Like
// SnapshotDir, the manifest rename is the commit point: expired and
// replaced files are deleted only after the new manifest is published,
// so a crash or error mid-pass leaves the previous snapshot fully
// restorable (docs/PERSISTENCE.md §4). RetainDir is the on-disk mirror
// of (*DB).Retain — the deployed system's InfluxDB retention policy
// dropped whole TSM shards the same way.
func RetainDir(dir string, olderThan time.Time) (segmentsRemoved, pointsDropped int, err error) {
	m, err := readManifest(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("tsdb: retaindir: %w", err)
	}
	cut := olderThan.UnixNano()
	gen := m.Generation + 1

	// Reap leftovers of a crashed earlier attempt so this pass's
	// gen-qualified names are free (docs/PERSISTENCE.md §4).
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("tsdb: retaindir: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) ||
			(strings.HasSuffix(e.Name(), segmentSuffix) && !listed[e.Name()]) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	var kept []SegmentMeta
	var dead []string // committed files to delete after the manifest publish
	for _, sm := range m.Segments {
		switch {
		case sm.WindowEnd <= cut:
			// Fully expired: a file delete, no decode (docs/PERSISTENCE.md §6).
			dead = append(dead, sm.File)
			segmentsRemoved++
			pointsDropped += sm.Points
		case sm.WindowStart < cut:
			// Boundary window: drop points before the cut and rewrite
			// under this generation's name (the old file dies at commit).
			// Segments trim at block granularity — whole blocks before
			// the cut are dropped and whole blocks past it are carried
			// over verbatim, so only the one straddling block per series
			// is ever decoded (docs/PERSISTENCE.md §8.1).
			meta, trimmed, err := trimBoundarySegment(dir, sm, cut, gen)
			if err != nil {
				return 0, 0, fmt.Errorf("tsdb: retaindir: %w", err)
			}
			pointsDropped += trimmed
			dead = append(dead, sm.File)
			if meta.File == "" {
				segmentsRemoved++
				continue
			}
			kept = append(kept, meta)
		default:
			kept = append(kept, sm)
		}
	}

	// The surviving distinct-series count cannot be known without
	// decoding the surviving segments, which RetainDir promises not to
	// do — so it is published as 0, "unknown", and RestoreDir falls back
	// to its per-segment checks (docs/PERSISTENCE.md §3, store_series).
	next := &Manifest{
		Version:     ManifestVersion,
		Generation:  gen,
		WindowNanos: m.WindowNanos,
		StoreSeries: 0,
		Segments:    kept,
	}
	for _, sm := range kept {
		next.TotalPoints += sm.Points
	}
	// Commit point; only afterwards are the expired and replaced files
	// dead. Deletion is best-effort — a failure leaves a leftover the
	// next writer reaps.
	if err := writeManifest(dir, next); err != nil {
		return 0, 0, fmt.Errorf("tsdb: retaindir: %w", err)
	}
	for _, name := range dead {
		os.Remove(filepath.Join(dir, name))
	}
	return segmentsRemoved, pointsDropped, nil
}

// trimBoundarySegment rewrites the one segment whose window contains
// the retention cut, dropping every point before cut. The rewritten
// segment keeps the original window span and level. A
// zero-valued meta (File == "") means no point survived and the
// segment is simply removed; trimmed reports the points dropped.
func trimBoundarySegment(dir string, sm SegmentMeta, cut int64, gen uint64) (meta SegmentMeta, trimmed int, err error) {
	payload, err := loadSegmentPayload(dir, sm)
	if err != nil {
		return SegmentMeta{}, 0, err
	}
	list, err := decodeBlockPayload(payload, sm)
	if err != nil {
		return SegmentMeta{}, 0, err
	}
	var kept []blockenc.Series
	points := 0
	for i := range list {
		s := &list[i]
		var blocks []blockenc.Block
		for _, b := range s.Blocks {
			switch {
			case b.MaxT < cut:
				trimmed += b.Count
			case b.MinT >= cut:
				blocks = append(blocks, b)
				points += b.Count
			default:
				ts, vs, err := b.Decode()
				if err != nil {
					return SegmentMeta{}, 0, fmt.Errorf("tsdb: segment %s: series %q: %w", sm.File, Key(s.Measurement, s.Tags), err)
				}
				lo := sort.Search(len(ts), func(j int) bool { return ts[j] >= cut })
				trimmed += lo
				if lo < len(ts) {
					blocks = append(blocks, blockenc.BuildBlocks(ts[lo:], vs[lo:])...)
					points += len(ts) - lo
				}
			}
		}
		if len(blocks) > 0 {
			kept = append(kept, blockenc.Series{Measurement: s.Measurement, Tags: s.Tags, Blocks: blocks})
		}
	}
	if len(kept) == 0 {
		return SegmentMeta{}, trimmed, nil
	}
	meta, err = writeSegmentFile(dir, gen, sm.Shard, sm.WindowStart, sm.WindowEnd, len(kept), points, sm.Level, blockenc.EncodePayload(kept))
	return meta, trimmed, err
}
