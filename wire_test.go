package smtmlp

// Wire-format pinning: the JSON shapes of Request, BatchResult,
// WorkloadResult, SingleResult and EngineMetrics are served over HTTP by
// cmd/smtserved, so an accidental field rename or type change is a breaking
// API change. The golden file freezes the full serialization (field names,
// nesting, the policy name encoding and the config tree); regenerate it
// deliberately with
//
//	go test -run TestWireSchemaGolden -update-golden
//
// after an intentional wire change.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// wireSample builds one fully-populated instance of every wire type with
// fixed values, so the golden bytes are deterministic.
func wireSample() any {
	wl := Mix("mcf", "galgel")
	req := Request{
		Tag:           "mcf-galgel/mlpflush",
		Config:        DefaultConfig(2),
		Workload:      wl,
		Policy:        MLPFlush,
		TraceInterval: 1000,
	}
	samples := []IntervalSample{
		{Cycle: 1000, Committed: 800, Fetched: 1200, L2Misses: 4, LLLs: 2,
			Flushes: 1, ROBOcc: 96, MLP: 3, Gated: true},
		{Cycle: 2000, Committed: 1100, Fetched: 1500, L2Misses: 0, LLLs: 0,
			Flushes: 0, ROBOcc: 12, MLP: 0},
	}
	res := WorkloadResult{
		Policy: "mlpflush",
		Threads: []ThreadResult{
			{Benchmark: "mcf", IPC: 0.5, Committed: 10000, LLLPer1K: 17.25,
				MLP: 5.125, Flushes: 12, CPIST: 2.5, CPIMT: 4.25,
				Intervals: samples},
			{Benchmark: "galgel", IPC: 1.25, Committed: 20000, LLLPer1K: 0.25,
				MLP: 3.75, Flushes: 3, CPIST: 0.75, CPIMT: 1.5},
		},
		Cycles: 40000,
		STP:    1.375,
		ANTT:   1.8125,
	}
	return struct {
		Request        Request       `json:"request"`
		BatchResultOK  BatchResult   `json:"batch_result_ok"`
		BatchResultErr BatchResult   `json:"batch_result_err"`
		SingleResult   SingleResult  `json:"single_result"`
		EngineMetrics  EngineMetrics `json:"engine_metrics"`
	}{
		Request:        req,
		BatchResultOK:  BatchResult{Index: 3, Request: req, Result: res},
		BatchResultErr: BatchResult{Index: 4, Request: req, Err: errors.New(`smtmlp: unknown benchmark: "nope"`)},
		SingleResult: SingleResult{IPC: 1.5, Cycles: 20000, Instructions: 30000,
			LLLPer1K: 2.25, MLP: 4.5, BranchMispredictRate: 0.03125,
			Intervals: samples[:1]},
		EngineMetrics: EngineMetrics{InFlight: 2, QueueDepth: 7, CacheEntries: 5,
			CacheHits: 40, CacheMisses: 5, CacheEvictions: 1},
	}
}

func TestWireSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(wireSample(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "wire_schema.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden after an intentional wire change): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire schema drifted from %s — a field rename or type change breaks HTTP clients.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestBatchResultJSONRoundTrip pins the success/error split of the
// BatchResult wire form: exactly one of result/error appears, and both
// directions agree.
func TestBatchResultJSONRoundTrip(t *testing.T) {
	req := Request{Tag: "t", Config: DefaultConfig(2), Workload: Mix("mcf", "galgel"), Policy: Flush}

	ok := BatchResult{Index: 1, Request: req, Result: WorkloadResult{Policy: "flush", STP: 1.5, ANTT: 2, Cycles: 10}}
	b, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"error"`)) {
		t.Fatalf("successful result carries an error field: %s", b)
	}
	var back BatchResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err != nil || back.Index != 1 || back.Result.STP != 1.5 || back.Request.Policy != Flush {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	fail := BatchResult{Index: 2, Request: req, Err: ErrUnknownBenchmark}
	b, err = json.Marshal(fail)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"result"`)) {
		t.Fatalf("failed result carries a result field: %s", b)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != ErrUnknownBenchmark.Error() {
		t.Fatalf("error did not survive the round trip: %+v", back.Err)
	}
}

// TestParsePolicy pins the public name -> Policy mapping the HTTP surface
// depends on.
func TestParsePolicy(t *testing.T) {
	if len(AllPolicies()) != 11 {
		t.Fatalf("AllPolicies() has %d entries, want 11", len(AllPolicies()))
	}
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("ParsePolicy(nope) = %v, want ErrUnknownPolicy", err)
	}
}
