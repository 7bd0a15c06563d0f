package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tables drops the per-experiment timing headers and campaign lines, which
// legitimately differ between runs, leaving the rendered tables.
func tables(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "## ") && !strings.HasPrefix(line, "(campaign: ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

var campaignLine = regexp.MustCompile(`(?m)^\(campaign: (\d+) cells, (\d+) from store, (\d+) simulated\)$`)

// TestRerunSimulatesNothing: a second run against the same -store reads
// every cell from the store and prints the same tables.
func TestRerunSimulatesNothing(t *testing.T) {
	args := []string{"-instructions", "1000", "-only", "fig20-21,fig22-23", "-store", t.TempDir()}
	var first, second, stderr bytes.Buffer
	if code := run(args, &first, &stderr); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr.String())
	}
	if code := run(args, &second, &stderr); code != 0 {
		t.Fatalf("second run: exit %d: %s", code, stderr.String())
	}
	// fig20-21 is one campaign, fig22-23 one per thread count.
	lines := campaignLine.FindAllStringSubmatch(second.String(), -1)
	if len(lines) != 3 {
		t.Fatalf("second run printed %d campaign lines, want 3:\n%s", len(lines), second.String())
	}
	for _, m := range lines {
		if m[3] != "0" || m[2] != m[1] {
			t.Fatalf("second run simulated cells: %s", m[0])
		}
	}
	// Within the first run, fig22-23 reuses fig20-21's mlpflush cells.
	if m := campaignLine.FindAllStringSubmatch(first.String(), -1); len(m) != 3 || m[1][2] != "36" {
		t.Fatalf("fig22-23 did not reuse fig20-21's 36 mlpflush cells: %v", m)
	}
	if tables(first.String()) != tables(second.String()) {
		t.Fatalf("tables differ between runs:\n%s\n---\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), "static") || !strings.Contains(first.String(), "dcra") {
		t.Fatalf("partitioning schemes missing:\n%s", first.String())
	}
}

// TestUnknownExperimentFailsFirst: an unknown -only name exits 2 before any
// experiment runs.
func TestUnknownExperimentFailsFirst(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-instructions", "1000", "-only", "fig20-21,bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed output before rejecting the name:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
		t.Fatalf("stderr %q", stderr.String())
	}
}

// TestScratchStoreRemoved: without -store the figures run against a scratch
// store that is removed on exit.
func TestScratchStoreRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-instructions", "1000", "-only", "fig22-23"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !campaignLine.MatchString(stdout.String()) {
		t.Fatalf("no campaign line:\n%s", stdout.String())
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("scratch store left behind: %v", left)
	}
}
