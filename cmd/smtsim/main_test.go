package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var out bytes.Buffer
	code := run(context.Background(), []string{"-threads", "swim,twolf", "-policy", "mlpflush",
		"-instructions", "10000"}, &out)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	s := out.String()
	for _, want := range []string{"swim", "twolf", "STP", "ANTT", "mlpflush"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunWithLimiter selects the resource partitioning schemes by policy
// name.
func TestRunWithLimiter(t *testing.T) {
	for _, name := range []string{"static", "dcra"} {
		var out bytes.Buffer
		if code := run(context.Background(), []string{"-threads", "swim,twolf", "-policy", name,
			"-instructions", "8000"}, &out); code != 0 {
			t.Fatalf("%s: exit code %d", name, code)
		}
		if !strings.Contains(out.String(), "policy: "+name) {
			t.Fatalf("%s not reported:\n%s", name, out.String())
		}
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-threads", "nope"}, &out); code == 0 {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-threads", "swim,twolf", "-policy", "nope"}, &out); code == 0 {
		t.Fatal("unknown policy accepted")
	}
}
