package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fivegsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "regenerate golden artifacts")

const goldenBatteryPath = "testdata/golden_battery.txt"

// goldenBattery renders everything the quick seed-1 battery emits: the
// tables exactly as `fgrepro -quick -seed 1 all` prints them, then the
// SHA-256 and byte count of the JSONL trace, the colf trace and the
// metrics CSV. Hashes keep the pinned file small while still failing on
// any single byte of drift.
func goldenBattery(t *testing.T) string {
	t.Helper()
	cfg := Config{Seed: 1, Quick: true, Obs: obs.New()}
	results, err := RunManyCtx(context.Background(), cfg, IDs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# golden battery artifacts: seed=%d quick=%v experiments=%d\n",
		cfg.Seed, cfg.Quick, len(results))
	for _, r := range results {
		for _, tb := range r.Tables {
			fmt.Fprintln(&b, tb)
		}
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer, []Result) error
	}{
		{"trace_jsonl", WriteTrace},
		{"trace_colf", WriteTraceColf},
		{"metrics_csv", WriteMetrics},
	} {
		var buf bytes.Buffer
		if err := a.write(&buf, results); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		fmt.Fprintf(&b, "%s sha256=%x bytes=%d\n", a.name, sha256.Sum256(buf.Bytes()), buf.Len())
	}
	return b.String()
}

// TestBatteryGoldenArtifacts pins the absolute bytes of the quick battery:
// every table, the trace in both encodings and the metrics CSV. ci.sh's
// other gates only compare runs with each other (serial against parallel,
// colf against JSONL), so a change applied the same way everywhere — a
// reordered merge tag, say — passes them and fails here. Regenerate with
// `go test ./internal/experiments -run BatteryGolden -update` only for a
// deliberate, explained model change.
func TestBatteryGoldenArtifacts(t *testing.T) {
	got := goldenBattery(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenBatteryPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBatteryPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenBatteryPath)
	if err != nil {
		t.Fatalf("missing golden (run `go test -run BatteryGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("battery artifacts drifted from the pinned golden:\n%s", firstLineDiff(string(want), got))
	}
}

// firstLineDiff reports the first line at which got departs from want.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
