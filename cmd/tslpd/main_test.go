package main

// End-to-end coverage of the daemon's persistence contract: a run
// interrupted and resumed from its -datadir must persist exactly what
// an uninterrupted run of the same length persists
// (docs/PERSISTENCE.md §4, §5).

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"interdomain/internal/tsdb"
)

// runTSLPD runs tslpd in-process and returns its output.
func runTSLPD(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tslpd %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// restoredDigest restores dir into a fresh store and returns its digest.
func restoredDigest(t *testing.T, dir string) (uint64, int) {
	t.Helper()
	db := tsdb.Open()
	if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	return db.Digest(), db.PointCount()
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	resumed := filepath.Join(t.TempDir(), "data")
	runTSLPD(t, "-hours", "3", "-vps", "comcast-nyc", "-datadir", resumed, "-snapshot-every", "1h")
	out := runTSLPD(t, "-hours", "4", "-vps", "comcast-nyc", "-datadir", resumed, "-snapshot-every", "1h")
	if !strings.Contains(out, "tslpd: resumed") || !strings.Contains(out, "replaying virtual time") {
		t.Fatalf("second run did not resume from its datadir:\n%s", out)
	}

	straight := filepath.Join(t.TempDir(), "data")
	lines := filepath.Join(t.TempDir(), "data.lp")
	runTSLPD(t, "-hours", "4", "-vps", "comcast-nyc", "-datadir", straight, "-snapshot-every", "1h",
		"-compact-after", "1h", "-retain", "240h", "-lineout", lines)

	got, gotPoints := restoredDigest(t, resumed)
	want, wantPoints := restoredDigest(t, straight)
	if gotPoints == 0 || got != want {
		t.Fatalf("resumed run persisted %d points (digest %016x), uninterrupted %d (digest %016x)",
			gotPoints, got, wantPoints, want)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-replica-addr", "127.0.0.1:0"},
		{"-hours", "1", "-vps", "nyc"},
		{"-hours", "1", "-vps", "acme-nyc"},
		{"-no-such-flag"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("tslpd %v: want an error", args)
		}
	}
}
