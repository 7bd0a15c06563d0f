package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"smtmlp"
	"smtmlp/internal/server"
)

// writeSpec drops a 12-cell campaign spec (2 policies x 3 workloads x
// 2 memory latencies) at a millisecond-scale budget.
func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
  "name": "e2e",
  "instructions": 5000,
  "warmup": 1000,
  "policies": ["icount", "mlpflush"],
  "workloads": {"mixes": [["mcf","galgel"], ["swim","twolf"], ["vortex","parser"]]},
  "grid": {"mem_latencies": [200, 500]}
}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var summaryRE = regexp.MustCompile(`total=(\d+) skipped=(\d+) executed=(\d+) failed=(\d+)`)

// parseSummary extracts the counters from the CLI summary line.
func parseSummary(t *testing.T, out string) (total, skipped, executed, failed int) {
	t.Helper()
	m := summaryRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no summary line in output:\n%s", out)
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	return atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])
}

func storeFiles(t *testing.T, dir string) (results, refs []byte) {
	t.Helper()
	results, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	refs, err = os.ReadFile(filepath.Join(dir, "refs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return results, refs
}

// cancelAfterWriter cancels a context once n progress lines have been
// written through it, simulating an operator's Ctrl-C mid-sweep.
type cancelAfterWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	lines  int
	after  int
	cancel context.CancelFunc
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	w.lines += bytes.Count(p, []byte{'\n'})
	if w.lines >= w.after && w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	return len(p), nil
}

func (w *cancelAfterWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSweepKillResumeByteIdentical is the end-to-end resumability proof at
// the CLI layer: run the sweep, kill it mid-flight (context cancel), resume
// with -resume, and verify the final store is byte-identical to an
// uninterrupted cold run — with the resumed invocation executing strictly
// fewer requests than the grid size.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	spec := writeSpec(t)

	// Reference: one uninterrupted cold run.
	coldDir := filepath.Join(t.TempDir(), "cold")
	var coldOut, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-spec", spec, "-store", coldDir, "-parallelism", "2"},
		&coldOut, &errOut); code != 0 {
		t.Fatalf("cold run exited %d\nstderr: %s", code, errOut.String())
	}
	total, _, executed, failed := parseSummary(t, coldOut.String())
	if total != 12 || executed != 12 || failed != 0 {
		t.Fatalf("cold summary total=%d executed=%d failed=%d", total, executed, failed)
	}
	coldResults, coldRefs := storeFiles(t, coldDir)

	// Interrupted run: cancel after a few progress lines.
	dir := filepath.Join(t.TempDir(), "killed")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{after: 4, cancel: cancel}
	errOut.Reset()
	if code := run(ctx, []string{"-spec", spec, "-store", dir, "-parallelism", "1"}, w, &errOut); code == 0 {
		t.Fatalf("interrupted run exited 0\noutput: %s", w.String())
	}
	_, _, executed1, _ := parseSummary(t, w.String())
	if executed1 < 1 || executed1 >= 12 {
		t.Fatalf("interrupted run executed %d of 12; the test needs a genuine mid-flight kill", executed1)
	}

	// Without -resume, the overlapping store is refused.
	var out2 bytes.Buffer
	errOut.Reset()
	if code := run(context.Background(), []string{"-spec", spec, "-store", dir}, &out2, &errOut); code == 0 {
		t.Fatal("overlapping store accepted without -resume")
	}

	// Resume fills exactly the gaps.
	out2.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-spec", spec, "-store", dir, "-resume", "-parallelism", "1"},
		&out2, &errOut); code != 0 {
		t.Fatalf("resume exited nonzero\nstderr: %s", errOut.String())
	}
	total2, skipped2, executed2, failed2 := parseSummary(t, out2.String())
	if total2 != 12 || skipped2 != executed1 || executed2 != 12-executed1 || failed2 != 0 {
		t.Fatalf("resume summary total=%d skipped=%d executed=%d failed=%d (interrupted had executed %d)",
			total2, skipped2, executed2, failed2, executed1)
	}
	if executed2 >= total2 {
		t.Fatal("resume executed the full grid; nothing was actually resumed")
	}

	gotResults, gotRefs := storeFiles(t, dir)
	if !bytes.Equal(coldResults, gotResults) {
		t.Fatalf("resumed results.ndjson differs from cold run (%d vs %d bytes)", len(gotResults), len(coldResults))
	}
	if !bytes.Equal(coldRefs, gotRefs) {
		t.Fatalf("resumed refs.ndjson differs from cold run (%d vs %d bytes)", len(gotRefs), len(coldRefs))
	}

	// A second -resume run is a no-op with a summary table.
	out2.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-spec", spec, "-store", dir, "-resume"}, &out2, &errOut); code != 0 {
		t.Fatalf("no-op resume exited nonzero\nstderr: %s", errOut.String())
	}
	if _, skipped3, executed3, _ := parseSummary(t, out2.String()); skipped3 != 12 || executed3 != 0 {
		t.Fatalf("no-op resume skipped=%d executed=%d", skipped3, executed3)
	}
	for _, want := range []string{"config", "mem=200", "mem=500", "mlpflush", "ANTT"} {
		if !bytes.Contains(out2.Bytes(), []byte(want)) {
			t.Fatalf("summary table missing %q:\n%s", want, out2.String())
		}
	}
}

func TestSweepBadInputs(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{}, // missing flags
		{"-spec", "/nonexistent", "-store", dir},
		{"-store", dir}, // missing spec
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Fatalf("args %v exited 0", args)
		}
	}

	// Unknown spec fields fail loudly instead of sweeping the baseline.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"workloadz": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-spec", bad, "-store", dir}, &out, &errOut); code == 0 {
		t.Fatal("unknown spec field accepted")
	}
	if !bytes.Contains(errOut.Bytes(), []byte("workloadz")) {
		t.Fatalf("error does not name the bad field: %s", errOut.String())
	}

	// Bad structured-log flags are usage errors before any work starts.
	for _, args := range [][]string{
		{"-spec", bad, "-store", dir, "-log-format", "yaml"},
		{"-spec", bad, "-store", dir, "-log-level", "loud"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Fatalf("args %v exited %d, want 2", args, code)
		}
	}
}

// newWorker starts one in-process smtserved worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	w := httptest.NewServer(server.New(smtmlp.NewEngine()))
	t.Cleanup(w.Close)
	return w
}

// TestFleetCLIEndToEnd drives the -workers path against two in-process
// workers and byte-compares the store with a local run of the same spec.
func TestFleetCLIEndToEnd(t *testing.T) {
	specPath := writeSpec(t)
	w1, w2 := newWorker(t), newWorker(t)

	localDir := filepath.Join(t.TempDir(), "local")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-spec", specPath, "-store", localDir, "-quiet"},
		&out, &errOut); code != 0 {
		t.Fatalf("local run exited %d\nstderr: %s", code, errOut.String())
	}

	fleetDir := filepath.Join(t.TempDir(), "store")
	out.Reset()
	errOut.Reset()
	code := run(context.Background(), []string{
		"-spec", specPath, "-store", fleetDir,
		"-workers", w1.URL + "," + w2.URL,
		"-lease-size", "2",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fleet run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	total, skipped, executed, failed := parseSummary(t, out.String())
	if total != 12 || skipped != 0 || executed != 12 || failed != 0 {
		t.Fatalf("summary total=%d skipped=%d executed=%d failed=%d", total, skipped, executed, failed)
	}
	for _, want := range []string{"fleet: leases=6 ", "wire_out=", "worker " + w1.URL + ": leases=",
		"config", "mem=200", "mem=500", "mlpflush", "ANTT"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	localResults, localRefs := storeFiles(t, localDir)
	fleetResults, fleetRefs := storeFiles(t, fleetDir)
	if !bytes.Equal(localResults, fleetResults) || !bytes.Equal(localRefs, fleetRefs) {
		t.Fatalf("store differs between local and fleet execution:\nlocal:\n%s\nfleet:\n%s", localResults, fleetResults)
	}

	// Overlap without -resume is refused.
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{
		"-spec", specPath, "-store", fleetDir, "-workers", w1.URL,
	}, &out, &errOut); code == 0 {
		t.Fatal("overlapping store accepted without -resume")
	}

	// -resume over the complete store is a no-op.
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{
		"-spec", specPath, "-store", fleetDir, "-workers", w1.URL, "-resume",
	}, &out, &errOut); code != 0 {
		t.Fatalf("no-op resume exited %d\nstderr: %s", code, errOut.String())
	}
	if _, skipped, executed, _ := parseSummary(t, out.String()); skipped != 12 || executed != 0 {
		t.Fatalf("no-op resume skipped=%d executed=%d", skipped, executed)
	}
}

// TestFleetCLIQuietAndLogFlags pins the -quiet x -log-format contract under
// -workers: -quiet silences the progress and per-worker lines on stdout but
// leaves the structured stderr log stream alone, which -log-level controls
// independently; a bad -log-format is a usage error.
func TestFleetCLIQuietAndLogFlags(t *testing.T) {
	specPath := writeSpec(t)
	w := newWorker(t)

	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{
		"-spec", specPath, "-store", filepath.Join(t.TempDir(), "store"),
		"-workers", w.URL, "-quiet", "-log-format", "json",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fleet run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, noisy := range []string{"progress:", "worker "} {
		if bytes.Contains(out.Bytes(), []byte(noisy)) {
			t.Fatalf("-quiet run printed %q lines:\n%s", noisy, out.String())
		}
	}
	if _, _, executed, _ := parseSummary(t, out.String()); executed != 12 {
		t.Fatalf("summary line missing or wrong under -quiet:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("fleet: leases=")) {
		t.Fatalf("fleet line missing under -quiet:\n%s", out.String())
	}
	var sawDispatch bool
	for _, line := range bytes.Split(bytes.TrimSpace(errOut.Bytes()), []byte("\n")) {
		var ll struct {
			Msg        string `json:"msg"`
			CampaignID string `json:"campaign_id"`
			RequestID  string `json:"request_id"`
		}
		if err := json.Unmarshal(line, &ll); err != nil {
			t.Fatalf("stderr line is not JSON under -log-format json: %s", line)
		}
		if ll.Msg == "lease dispatched" {
			if ll.CampaignID == "" || ll.RequestID == "" {
				t.Fatalf("dispatch log line lacks correlation IDs: %s", line)
			}
			sawDispatch = true
		}
	}
	if !sawDispatch {
		t.Fatalf("no 'lease dispatched' log line on stderr:\n%s", errOut.String())
	}

	// -log-level error silences the info-level lease lifecycle.
	out.Reset()
	errOut.Reset()
	code = run(context.Background(), []string{
		"-spec", specPath, "-store", filepath.Join(t.TempDir(), "store"),
		"-workers", w.URL, "-quiet", "-log-format", "json", "-log-level", "error",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	if bytes.Contains(errOut.Bytes(), []byte("lease dispatched")) {
		t.Fatalf("-log-level error still logs info lines:\n%s", errOut.String())
	}

	// A bad format is a usage error before any work starts.
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{
		"-spec", specPath, "-store", t.TempDir(), "-workers", w.URL,
		"-log-format", "yaml",
	}, &out, &errOut); code != 2 {
		t.Fatalf("bad -log-format exited %d, want 2", code)
	}
}

func TestFleetCLIBadInputs(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t)
	cases := [][]string{
		{"-spec", spec, "-workers", "http://x"},                   // missing store
		{"-spec", "/nonexistent", "-store", dir, "-workers", "x"}, // bad spec path
		{"-spec", spec, "-store", dir, "-workers", " , "},         // empty worker list
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Fatalf("args %v exited 0", args)
		}
	}
}
