package main

// End-to-end coverage of the analyzer over a segment directory written
// the way tslpd -datadir writes one: a packet-mode campaign's store,
// snapshotted, restored and analyzed link by link.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"interdomain/internal/core"
	"interdomain/internal/netsim"
	"interdomain/internal/scenario"
	"interdomain/internal/tsdb"
)

// campaignDir runs one vantage point's packet-mode campaign for the
// given virtual hours and snapshots its store into a fresh directory.
func campaignDir(t *testing.T, hours int) string {
	t.Helper()
	in, _, err := scenario.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.Open()
	sys := core.NewSystem(in, db, netsim.Epoch)
	if _, err := sys.AddVP(scenario.Comcast, "nyc", netsim.Epoch); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunUntil(netsim.Epoch.Add(time.Duration(hours) * time.Hour))
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeCampaignDir(t *testing.T) {
	dir := campaignDir(t, 8)
	var out bytes.Buffer
	if err := run([]string{"-in", dir, "-autocorr"}, &out); err != nil {
		t.Fatalf("congestion -in: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"links with TSLP data", "\nlink ", "coverage=", "autocorrelation"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output lacks %q:\n%s", want, got)
		}
	}

	// A link filter narrows the report to that link.
	i := strings.Index(got, "\nlink ") + len("\nlink ")
	id := got[i : i+strings.IndexByte(got[i:], ' ')]
	out.Reset()
	if err := run([]string{"-in", dir, "-link", id, "-vp", "comcast-nyc"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\nlink "); n > 1 {
		t.Fatalf("-link %s reported %d links:\n%s", id, n, out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	file := filepath.Join(t.TempDir(), "snap.tsdb")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if _, err := tsdb.Open().SnapshotDir(empty, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-in is required"},
		{[]string{"-in", file}, "not a segment directory"},
		{[]string{"-in", filepath.Join(empty, "missing")}, "no such file"},
		{[]string{"-in", t.TempDir()}, tsdb.ManifestName},
		{[]string{"-in", empty}, "no TSLP data"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("congestion %v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}
