package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// round is the probe-round cadence of the synthetic TSLP series: one
// point per series every 15 minutes, the detector's bin width.
const round = 15 * time.Minute

// seriesSpec is one synthetic TSLP series.
type seriesSpec struct {
	tags map[string]string
	link int
	far  bool
}

// fixture describes a synthetic TSLP store: for every (vp, link, side)
// one point per round from netsim.Epoch for days days. Values are a
// pure function of (seed, series, time), so a tick can generate the
// next round without any state, and a third of the links carry a
// recurring evening elevation for the detector to find.
type fixture struct {
	seed   uint64
	vps    []string
	links  []string
	days   int
	series []seriesSpec
	// congested marks links whose far side is elevated most evenings.
	congested []bool
}

func newFixture(seed uint64, vps, links, days int) *fixture {
	f := &fixture{seed: seed, days: days}
	for v := 0; v < vps; v++ {
		f.vps = append(f.vps, fmt.Sprintf("vp-%d", v))
	}
	// Exactly a third of the links are congested; the seed picks which.
	f.congested = make([]bool, links)
	for i, l := range rand.New(rand.NewSource(int64(seed))).Perm(links) {
		f.links = append(f.links, fmt.Sprintf("link-%02d", i))
		f.congested[l] = i < links/3
	}
	for l, link := range f.links {
		for _, vp := range f.vps {
			for _, side := range []string{"far", "near"} {
				f.series = append(f.series, seriesSpec{
					tags: map[string]string{"vp": vp, "link": link, "side": side},
					link: l,
					far:  side == "far",
				})
			}
		}
	}
	return f
}

// end is the first instant after the fixture's data.
func (f *fixture) end() time.Time { return netsim.Day(f.days) }

// unit returns a uniform value in [0, 1) for (series, t, salt).
func (f *fixture) unit(si int, t time.Time, salt uint64) float64 {
	x := f.seed ^ uint64(si)*0x9e3779b97f4a7c15 ^ uint64(t.Unix())*0xbf58476d1ce4e5b9 ^ salt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// value is series si's RTT sample in ms at t.
func (f *fixture) value(si int, t time.Time) float64 {
	s := f.series[si]
	if !s.far {
		return 4 + f.unit(si, t, 1)
	}
	v := 18 + float64(s.link%5) + 2*f.unit(si, t, 2)
	if h := t.Hour(); f.congested[s.link] && h >= 19 && h < 23 && f.unit(si, t.Truncate(24*time.Hour), 3) < 0.8 {
		v += 25
	}
	return v
}

// roundPoints appends one point per series at t.
func (f *fixture) roundPoints(buf []tsdb.BatchPoint, t time.Time) []tsdb.BatchPoint {
	for si, s := range f.series {
		buf = append(buf, tsdb.BatchPoint{Measurement: "tslp", Tags: s.tags, Time: t, Value: f.value(si, t)})
	}
	return buf
}

// fill writes every round of [Epoch, end) into db.
func (f *fixture) fill(db *tsdb.DB) {
	var batch []tsdb.BatchPoint
	for t := netsim.Epoch; t.Before(f.end()); t = t.Add(round) {
		batch = f.roundPoints(batch, t)
		if len(batch) >= 8192 {
			db.WriteBatch(batch)
			batch = batch[:0]
		}
	}
	db.WriteBatch(batch)
}

// Read classes of the dashboard mix.
const (
	classCongestion = iota
	classAggregate
	classRaw
	classDashboard
	numClasses
)

var classNames = [numClasses]string{"congestion", "aggregate", "raw", "dashboard"}

// viewClasses is the order in which the mix visits the classes: the
// requests of one view of a link, which are its dashboard page, its
// congestion inference, its hourly aggregate and its raw far and near
// series. Every run of len(viewClasses) reads holds each class at
// exactly its share (20/20/20/40 %), so the class proportions, and
// with them the mean cost of a read, depend neither on the seed nor on
// where a window of reads starts; the seed only picks which requests
// of a class are hot. No access log of the system exists, so these
// shares, like zipfS and the offered rates, are assumptions that no
// observed traffic has checked.
var viewClasses = []int{classDashboard, classCongestion, classAggregate, classRaw, classRaw}

// request is one distinct dashboard read.
type request struct {
	class int
	path  string // path and query, relative to a server's base URL
}

// window is the time range a mix reads.
type window struct {
	from time.Time
	days int
}

func (w window) to() time.Time { return w.from.AddDate(0, 0, w.days) }

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// catalog builds the distinct requests of a dashboard mix, per class:
// per link a congestion analysis over detect, an hourly aggregate over
// agg, a raw far and near page over raw, and a dashboard page of
// dashDays days ending at dash's end; plus the dashboard index.
func (f *fixture) catalog(detect, agg, raw window, dashDays int, dash window) [numClasses][]request {
	var c [numClasses][]request
	for _, link := range f.links {
		q := url.Values{"link": {link}, "from": {rfc(detect.from)}, "days": {fmt.Sprint(detect.days)}}
		c[classCongestion] = append(c[classCongestion], request{classCongestion, "/api/v1/congestion?" + q.Encode()})

		q = url.Values{"m": {"tslp"}, "link": {link}, "side": {"far"}, "from": {rfc(agg.from)}, "to": {rfc(agg.to())},
			"agg": {"mean,max"}, "step": {"1h"}}
		c[classAggregate] = append(c[classAggregate], request{classAggregate, "/api/v1/query?" + q.Encode()})

		for _, side := range []string{"far", "near"} {
			q = url.Values{"m": {"tslp"}, "link": {link}, "side": {side}, "from": {rfc(raw.from)}, "to": {rfc(raw.to())}}
			c[classRaw] = append(c[classRaw], request{classRaw, "/api/v1/query?" + q.Encode()})
		}

		q = url.Values{"link": {link}, "from": {rfc(dash.to().AddDate(0, 0, -dashDays))}, "days": {fmt.Sprint(dashDays)}}
		c[classDashboard] = append(c[classDashboard], request{classDashboard, "/dashboard?" + q.Encode()})
	}
	c[classDashboard] = append(c[classDashboard], request{classDashboard, "/dashboard"})
	return c
}

// zipfS is the Zipf exponent of the request popularity within a class.
const zipfS = 1.1

// mix draws n reads from the catalog: the classes in viewClasses order,
// and within a class a request by a Zipf law over a seeded permutation,
// so a few requests of each class are hot. The exponent zipfS is assumed,
// not measured; math/rand's Zipf needs an exponent above 1, and zipfS
// is the smallest one-decimal value that is.
func mix(rng *rand.Rand, cat [numClasses][]request, n int) []request {
	var zipfs [numClasses]*rand.Zipf
	var perms [numClasses][]int
	for c := range cat {
		zipfs[c] = rand.NewZipf(rng, zipfS, 1, uint64(len(cat[c])-1))
		perms[c] = rng.Perm(len(cat[c]))
	}
	out := make([]request, n)
	for i := range out {
		c := viewClasses[i%len(viewClasses)]
		out[i] = cat[c][perms[c][zipfs[c].Uint64()]]
	}
	return out
}

// distinct returns the distinct requests of a sequence, in first-seen
// order.
func distinct(seq []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range seq {
		if !seen[r.path] {
			seen[r.path] = true
			out = append(out, r)
		}
	}
	return out
}
