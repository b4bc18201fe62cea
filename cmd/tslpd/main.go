// Command tslpd runs the packet-mode measurement system end to end on the
// simulated U.S. broadband ecosystem: it deploys vantage points, runs
// bdrmap to discover interdomain links, probes them with TSLP every five
// minutes of virtual time, arms reactive loss probing on links with
// level-shift episodes, and persists the collected series for the
// congestion analyzer and API server.
//
// Usage:
//
//	tslpd [-seed N] [-hours H] [-vps comcast-nyc,verizon-nyc]
//	      [-datadir dir] [-snapshot-every 6h] [-retain 0]
//	      [-compact-after 24h] [-compact-windows 7]
//	      [-replica-addr :8081] [-lineout data.lp]
//
// With -datadir the store persists as a segment directory (one file per
// shard and time window; see docs/PERSISTENCE.md): tslpd restores from
// it on startup if it holds a snapshot (fully decoded: the run writes
// to every series and each snapshot walks all points), takes an
// incremental snapshot every -snapshot-every of virtual time —
// rewriting only segments whose (shard, window) changed — and, with
// -retain > 0, first ages out data older than the retention horizon.
// Because the simulation replays
// deterministically from the epoch, a restart with the same -seed sets
// a write floor at the restored maximum timestamp: the replayed prefix
// is dropped instead of inserted twice, so a resumed run's store equals
// an uninterrupted one.
//
// With -compact-after > 0 each snapshot is followed by a background
// level-compaction pass (docs/PERSISTENCE.md §8.4): windows colder
// than the horizon are merged, up to -compact-windows base windows per
// output segment, shrinking the file count without changing content.
//
// With -replica-addr (requires -datadir) tslpd is a replication leader
// (docs/REPLICATION.md): it exports the datadir's committed manifest
// and segments over HTTP while the run writes new snapshots, and keeps
// exporting after the final snapshot until interrupted, so followers
// started with apiserver -follow can converge at any time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"interdomain/internal/core"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/scenario"
	"interdomain/internal/tsdb"
	"interdomain/internal/tslp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tslpd:", err)
		os.Exit(1)
	}
}

// run is tslpd with its arguments and output stream made explicit, so
// tests can drive whole runs in-process.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("tslpd", flag.ContinueOnError)
	seed := flags.Uint64("seed", 1, "determinism seed")
	hours := flags.Int("hours", 26, "virtual hours to run")
	vpsFlag := flags.String("vps", "comcast-nyc,verizon-nyc", "comma-separated <provider>-<metro> vantage points")
	lineOut := flags.String("lineout", "", "also export the data as InfluxDB line protocol (the public-release format)")
	reactive := flags.Bool("reactive", false, "enable reactive probing-set maintenance")
	datadir := flags.String("datadir", "", "segment directory for periodic incremental snapshots (docs/PERSISTENCE.md)")
	snapEvery := flags.Duration("snapshot-every", 6*time.Hour, "virtual-time cadence of -datadir snapshots")
	retain := flags.Duration("retain", 0, "drop data older than this horizon at each snapshot (0 keeps everything)")
	compactAfter := flags.Duration("compact-after", 0, "merge segment windows colder than this horizon after each snapshot (0 disables compaction)")
	compactWindows := flags.Int("compact-windows", tsdb.DefaultCompactWindows, "max base windows per compacted segment")
	replicaAddr := flags.String("replica-addr", "", "export -datadir to replication followers on this address (docs/REPLICATION.md)")
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *replicaAddr != "" && *datadir == "" {
		return fmt.Errorf("-replica-addr requires -datadir")
	}

	in, _, err := scenario.Build(*seed)
	if err != nil {
		return err
	}
	db := tsdb.Open()
	if *datadir != "" {
		if _, err := os.Stat(filepath.Join(*datadir, tsdb.ManifestName)); err == nil {
			if err := db.RestoreDir(*datadir, tsdb.DirOptions{}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "tslpd: resumed %d series (%d points) from %s\n", db.SeriesCount(), db.PointCount(), *datadir)
			// The simulation below re-runs deterministically from the
			// epoch, regenerating every point the restored snapshot
			// already holds; the write floor drops that replayed prefix
			// so a restart cannot double-insert it.
			if floor := db.MaxTime(); !floor.IsZero() {
				db.SetWriteFloor(floor)
				fmt.Fprintf(stdout, "tslpd: replaying virtual time up to %s (points at or before it are already persisted)\n",
					floor.UTC().Format(time.RFC3339))
			}
		}
	}
	// Leader-side replication: export the datadir over HTTP for the
	// whole run. The exporter serves whatever manifest is committed —
	// 503 before the first snapshot, then each generation as it lands —
	// so it can start before any data exists.
	if *replicaAddr != "" {
		ln, err := net.Listen("tcp", *replicaAddr)
		if err != nil {
			return fmt.Errorf("replica listener: %w", err)
		}
		defer ln.Close() // stops the Serve goroutine
		go http.Serve(ln, replication.NewExporter(*datadir))
		fmt.Fprintf(stdout, "tslpd: exporting %s to followers on %s\n", *datadir, *replicaAddr)
	}

	sys := core.NewSystem(in, db, netsim.Epoch)
	sys.ReactiveTSLP = *reactive

	providerASN := map[string]int{
		"comcast": scenario.Comcast, "att": scenario.ATT, "verizon": scenario.Verizon,
		"centurylink": scenario.CenturyLink, "cox": scenario.Cox, "twc": scenario.TWC,
		"charter": scenario.Charter, "rcn": scenario.RCN,
	}
	for _, spec := range strings.Split(*vpsFlag, ",") {
		spec = strings.TrimSpace(spec)
		i := strings.LastIndex(spec, "-")
		if i <= 0 {
			return fmt.Errorf("bad VP spec %q, want <provider>-<metro>", spec)
		}
		asn, ok := providerASN[spec[:i]]
		if !ok {
			return fmt.Errorf("unknown provider %q", spec[:i])
		}
		if _, err := sys.AddVP(asn, spec[i+1:], netsim.Epoch); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "tslpd: %s\n", in)
	sys.Start()
	deadline := netsim.Epoch.Add(time.Duration(*hours) * time.Hour)

	// Periodic persistence: a global event (it runs alone, between tick
	// partitions) that ages the store out and takes an incremental
	// snapshot — only dirty (shard, window) segments are rewritten.
	// The first persistence error stops the periodic snapshots and fails
	// the run once the simulation returns.
	var persistErr error
	if *datadir != "" {
		var cancel func()
		fail := func(err error) {
			persistErr = err
			cancel()
		}
		compact := func(t time.Time) {
			if *compactAfter <= 0 {
				return
			}
			cs, err := db.Compact(*datadir, tsdb.CompactOptions{
				ColdBefore: t.Add(-*compactAfter),
				MaxWindows: *compactWindows,
			})
			if err != nil {
				fail(err)
				return
			}
			if cs.Merged > 0 {
				fmt.Fprintf(stdout, "tslpd: %s compaction gen %d: merged %d segments into %d (%d -> %d bytes)\n",
					t.Format("01-02 15:04"), cs.Generation, cs.Merged, cs.Written, cs.BytesIn, cs.BytesOut)
			}
		}
		snapshot := func(t time.Time) {
			if *retain > 0 {
				if n := db.Retain(t.Add(-*retain), t.AddDate(100, 0, 0)); n > 0 {
					fmt.Fprintf(stdout, "tslpd: %s retention dropped %d points\n", t.Format("01-02 15:04"), n)
				}
			}
			st, err := db.SnapshotDir(*datadir, tsdb.DirOptions{Incremental: true})
			if err != nil {
				fail(err)
				return
			}
			fmt.Fprintf(stdout, "tslpd: %s snapshot gen %d: %d segments (%d written, %d reused, %d removed)\n",
				t.Format("01-02 15:04"), st.Generation, st.Segments, st.Written, st.Reused, st.Removed)
			compact(t)
		}
		cancel = sys.Sched.Every(netsim.Epoch.Add(*snapEvery), *snapEvery, snapshot)
	}
	t0 := time.Now()
	events := sys.RunUntil(deadline)
	if persistErr != nil {
		return persistErr
	}
	fmt.Fprintf(stdout, "tslpd: ran %d virtual hours (%d events) in %.1fs wall\n", *hours, events, time.Since(t0).Seconds())

	for _, sv := range sys.SortedVPs() {
		links := 0
		if sv.LastBdrmap != nil {
			links = len(sv.LastBdrmap.Links)
		}
		fmt.Fprintf(stdout, "  vp %-22s links=%-3d tslpRounds=%-4d responseRate=%.1f%%\n",
			sv.VP.Name, links, sv.TSLP.RoundsRun, 100*sv.TSLP.ResponseRate())
		if sv.LastBdrmap == nil {
			continue
		}
		// Arm reactive loss probing on links with level-shift episodes in
		// the first day (§3.3's trigger).
		congested := map[string]bool{}
		for _, l := range sv.LastBdrmap.Links {
			id := tslp.LinkID(l)
			eps := sys.DetectEpisodes(sv.VP.Name, id, netsim.Epoch, 1)
			if len(eps) > 0 {
				congested[id] = true
				fmt.Fprintf(stdout, "    level-shift episodes on %s: %d\n", id, len(eps))
			}
		}
		if n := sys.ArmLossProbing(sv, congested, nil); n > 0 {
			fmt.Fprintf(stdout, "    armed loss probing on %d interfaces\n", n)
		}
	}
	fmt.Fprintf(stdout, "tslpd: store holds %d series, %d points\n", db.SeriesCount(), db.PointCount())

	if *datadir != "" {
		st, err := db.SnapshotDir(*datadir, tsdb.DirOptions{Incremental: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tslpd: final snapshot gen %d: %d segments (%d written, %d reused) in %s\n",
			st.Generation, st.Segments, st.Written, st.Reused, *datadir)
		if *compactAfter > 0 {
			cs, err := db.Compact(*datadir, tsdb.CompactOptions{
				ColdBefore: deadline.Add(-*compactAfter),
				MaxWindows: *compactWindows,
			})
			if err != nil {
				return err
			}
			if cs.Merged > 0 {
				fmt.Fprintf(stdout, "tslpd: final compaction gen %d: merged %d segments into %d (%d -> %d bytes)\n",
					cs.Generation, cs.Merged, cs.Written, cs.BytesIn, cs.BytesOut)
			}
		}
	}
	if *lineOut != "" {
		f, err := os.Create(*lineOut)
		if err != nil {
			return err
		}
		n, err := db.ExportLines(f)
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tslpd: %d line-protocol points written to %s\n", n, *lineOut)
	}

	// Keep exporting the final generation so late-starting followers can
	// still converge; the run's data is already durable at this point.
	if *replicaAddr != "" {
		fmt.Fprintf(stdout, "tslpd: run complete; still exporting %s on %s (interrupt to exit)\n", *datadir, *replicaAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		<-sig
	}
	return nil
}
