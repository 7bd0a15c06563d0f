package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtmlp"
	"smtmlp/internal/bench"
	"smtmlp/internal/store"
)

// tinySpec is a fast 2x3x2 = 12-cell campaign (two config points, three
// workloads, two policies) at a few-millisecond budget per cell.
func tinySpec() Spec {
	return Spec{
		Name:         "tiny",
		Instructions: 5_000,
		Warmup:       1_000,
		Policies:     []string{"icount", "mlpflush"},
		Workloads: WorkloadSpec{
			Mixes: [][]string{{"mcf", "galgel"}, {"swim", "twolf"}, {"vortex", "parser"}},
		},
		Grid: Grid{MemLatencies: []int64{200, 500}},
	}
}

func TestSpecExpansionDeterministic(t *testing.T) {
	spec := tinySpec()
	r1, f1, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	r2, f2, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("expansion not deterministic")
	}
	if len(r1) != 12 {
		t.Fatalf("expanded %d requests, want 12", len(r1))
	}
	// Policy-major within a grid point, grid points in declared order.
	if r1[0].Tag != "mem=200/mcf-galgel/icount" {
		t.Fatalf("first tag %q", r1[0].Tag)
	}
	if r1[3].Tag != "mem=200/mcf-galgel/mlpflush" {
		t.Fatalf("fourth tag %q (want policy-major order)", r1[3].Tag)
	}
	if r1[6].Tag != "mem=500/mcf-galgel/icount" {
		t.Fatalf("seventh tag %q", r1[6].Tag)
	}
	// The spec round-trips through JSON (it is the CLI/HTTP wire format).
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	_, f3, err := back.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f3) {
		t.Fatal("JSON round-trip changed the expansion")
	}
}

func TestSpecDefaultsAndTables(t *testing.T) {
	spec := Spec{Workloads: WorkloadSpec{Tables: []string{"two_thread"}}}
	reqs, _, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	// 36 Table II workloads x the paper's six policies on one point.
	if len(reqs) != 36*6 {
		t.Fatalf("expanded %d requests, want 216", len(reqs))
	}
	instr, warm := spec.Params()
	if instr != 300_000 || warm != 75_000 {
		t.Fatalf("default params %d/%d", instr, warm)
	}
	if reqs[0].Config.Threads != 2 {
		t.Fatal("table workloads must get matching thread counts")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"unknown policy",
			Spec{Policies: []string{"nope"}, Workloads: WorkloadSpec{Mixes: [][]string{{"mcf", "swim"}}}},
			smtmlp.ErrUnknownPolicy},
		{"unknown benchmark",
			Spec{Workloads: WorkloadSpec{Mixes: [][]string{{"mcf", "nope"}}}},
			smtmlp.ErrUnknownBenchmark},
		{"thread mismatch",
			Spec{Workloads: WorkloadSpec{Threads: 4, Mixes: [][]string{{"mcf", "swim"}}}},
			smtmlp.ErrWorkloadMismatch},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if err := (Spec{Workloads: WorkloadSpec{Tables: []string{"five_thread"}}}).Validate(); err == nil {
		t.Error("unknown table accepted")
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty workload selector accepted")
	}
	if err := (Spec{
		Workloads: WorkloadSpec{Mixes: [][]string{{"mcf", "swim"}}},
		Grid:      Grid{ROBSizes: []int{4}},
	}).Validate(); err == nil {
		t.Error("absurd rob size accepted")
	}
	// A hostile generated count must fail fast, not spin the expander.
	if err := (Spec{
		Workloads: WorkloadSpec{Generated: &Generated{Count: 1_000_000_000}},
	}).Validate(); err == nil {
		t.Error("absurd generated count accepted")
	}
}

func TestGeneratedWorkloads(t *testing.T) {
	gen := func(seed uint64, class string, threads int) []smtmlp.Workload {
		t.Helper()
		spec := Spec{Workloads: WorkloadSpec{
			Generated: &Generated{Count: 8, Seed: seed, Class: class, Threads: threads},
		}}
		ws, err := spec.workloads()
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}

	a := gen(7, "mixed", 4)
	b := gen(7, "mixed", 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different mixes")
	}
	c := gen(8, "mixed", 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical mixes")
	}
	seen := map[string]bool{}
	for _, w := range a {
		if len(w.Benchmarks) != 4 {
			t.Fatalf("mix %s has %d benchmarks", w.Name(), len(w.Benchmarks))
		}
		if w.Class != bench.MixedWorkload || w.MLPCount == 0 || w.MLPCount == 4 {
			t.Fatalf("mix %s is not mixed (class=%v mlp=%d)", w.Name(), w.Class, w.MLPCount)
		}
		if seen[w.Name()] {
			t.Fatalf("duplicate generated mix %s", w.Name())
		}
		seen[w.Name()] = true
		distinct := map[string]bool{}
		for _, name := range w.Benchmarks {
			if distinct[name] {
				t.Fatalf("mix %s repeats %s", w.Name(), name)
			}
			distinct[name] = true
		}
	}
	for _, w := range gen(3, "mlp", 2) {
		if w.Class != bench.MLPWorkload {
			t.Fatalf("mlp-class mix %s has class %v", w.Name(), w.Class)
		}
	}
	for _, w := range gen(3, "ilp", 2) {
		if w.Class != bench.ILPWorkload {
			t.Fatalf("ilp-class mix %s has class %v", w.Name(), w.Class)
		}
	}
}

// storeBytes reads both store files for byte-level comparisons.
func storeBytes(t *testing.T, dir string) (results, refs []byte) {
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

func TestCampaignRunAndRerunIsIdempotent(t *testing.T) {
	spec := tinySpec()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var last Progress
	sum, err := Run(context.Background(), st, spec, Options{Progress: func(p Progress) { last = p }})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 12 || sum.Executed != 12 || sum.Skipped != 0 || sum.Failed != 0 {
		t.Fatalf("cold summary %+v", sum)
	}
	if last.Executed != 12 || last.Total != 12 {
		t.Fatalf("final progress %+v", last)
	}
	if st.Len() != 12 {
		t.Fatalf("store holds %d results", st.Len())
	}
	if sum.RefsSaved == 0 {
		t.Fatal("no references persisted")
	}

	// Re-running the identical spec executes nothing and changes no bytes.
	before, beforeRefs := storeBytes(t, dir)
	sum2, err := Run(context.Background(), st, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Executed != 0 || sum2.Skipped != 12 {
		t.Fatalf("rerun summary %+v", sum2)
	}
	after, afterRefs := storeBytes(t, dir)
	if !bytes.Equal(before, after) || !bytes.Equal(beforeRefs, afterRefs) {
		t.Fatal("idempotent rerun changed store bytes")
	}
}

// TestCampaignResumeByteIdentical is the resumability proof: a campaign
// canceled mid-flight and then resumed leaves the store byte-identical to an
// uninterrupted cold run, with the resumed run executing strictly fewer
// cells than the grid.
func TestCampaignResumeByteIdentical(t *testing.T) {
	spec := tinySpec()

	// Uninterrupted cold run -> reference bytes.
	coldDir := t.TempDir()
	coldStore, err := store.Open(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), coldStore, spec, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	coldStore.Close()
	coldResults, coldRefs := storeBytes(t, coldDir)

	// Interrupted run: cancel after the third committed cell.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sum, err := Run(ctx, st, spec, Options{
		Parallelism: 2,
		Progress: func(p Progress) {
			if p.Executed >= 3 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, smtmlp.ErrCanceled) {
		t.Fatalf("interrupted run returned %v, want ErrCanceled", err)
	}
	if sum.Executed < 3 || sum.Executed >= 12 {
		t.Fatalf("interrupted run executed %d of 12; the test needs a genuine mid-flight cancel", sum.Executed)
	}
	if st.Len() != sum.Executed {
		t.Fatalf("store holds %d results, summary says %d", st.Len(), sum.Executed)
	}
	st.Close()

	// Resume on a fresh open (a restart): executes strictly fewer cells
	// than the grid and finishes it.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := Run(context.Background(), st2, spec, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != sum.Executed || sum2.Executed != 12-sum.Executed {
		t.Fatalf("resume summary %+v after interrupted %+v", sum2, sum)
	}
	if sum2.Executed >= sum2.Total {
		t.Fatal("resumed run re-executed the whole grid")
	}
	// The interrupted run persisted its references; the resume must
	// warm-start from them rather than re-simulate.
	if sum2.RefsSeeded == 0 {
		t.Fatal("resume did not warm-start from persisted references")
	}
	st2.Close()

	gotResults, gotRefs := storeBytes(t, dir)
	if !bytes.Equal(coldResults, gotResults) {
		t.Fatalf("resumed results.ndjson differs from cold run (%d vs %d bytes)", len(gotResults), len(coldResults))
	}
	if !bytes.Equal(coldRefs, gotRefs) {
		t.Fatalf("resumed refs.ndjson differs from cold run (%d vs %d bytes)", len(gotRefs), len(coldRefs))
	}
}

// TestCampaignWarmStartSkipsReferences: extending a finished campaign with a
// new policy re-simulates no single-threaded references at all.
func TestCampaignWarmStartSkipsReferences(t *testing.T) {
	spec := tinySpec()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sum, err := Run(context.Background(), st, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.CacheMisses == 0 {
		t.Fatal("cold run computed no references?")
	}

	wider := spec
	wider.Policies = []string{"icount", "mlpflush", "flush"}
	sum2, err := Run(context.Background(), st, wider, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != 12 || sum2.Executed != 6 {
		t.Fatalf("extended summary %+v", sum2)
	}
	if sum2.CacheMisses != 0 {
		t.Fatalf("extended run re-simulated %d references despite the warm-start", sum2.CacheMisses)
	}
	if sum2.RefsSeeded == 0 {
		t.Fatal("no references seeded")
	}
}

func TestSummarize(t *testing.T) {
	spec := tinySpec()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := Run(context.Background(), st, spec, Options{}); err != nil {
		t.Fatal(err)
	}
	rows, err := Summarize(st, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 config points x 2 policies
		t.Fatalf("%d summary rows, want 4", len(rows))
	}
	if rows[0].Config != "mem=200" || rows[0].Policy != "icount" {
		t.Fatalf("first row %+v", rows[0])
	}
	for _, r := range rows {
		if r.Workloads != 3 || r.STP <= 0 || r.ANTT < 1 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

// TestMissingCellsAndCarve pins the distributed-execution work list: the
// diff against the store preserves expansion order and indices, and Carve
// chunks it contiguously without reordering.
func TestMissingCellsAndCarve(t *testing.T) {
	spec := tinySpec()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	reqs, fps, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	cells, total, err := MissingCells(st, spec)
	if err != nil || total != len(reqs) || len(cells) != len(reqs) {
		t.Fatalf("empty-store diff: %d cells of %d total (err %v), want all %d",
			len(cells), total, err, len(reqs))
	}
	for i, c := range cells {
		if c.Index != i || c.Fingerprint != fps[i] || c.Request.Tag != reqs[i].Tag {
			t.Fatalf("cell %d: %+v does not match expansion", i, c)
		}
	}

	// Persist a scattered subset; the diff must be exactly the complement,
	// still in expansion order with original indices.
	for _, i := range []int{0, 3, 4, 9} {
		if _, err := st.Append(store.Record{Fingerprint: fps[i], Request: reqs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	cells, total, err = MissingCells(st, spec)
	if err != nil || total != len(reqs) || len(cells) != len(reqs)-4 {
		t.Fatalf("partial diff: %d cells (err %v), want %d", len(cells), err, len(reqs)-4)
	}
	prev := -1
	for _, c := range cells {
		if c.Index <= prev || c.Index == 0 || c.Index == 3 || c.Index == 4 || c.Index == 9 {
			t.Fatalf("diff returned persisted or out-of-order cell %d", c.Index)
		}
		prev = c.Index
	}

	// Carve: contiguous chunks, order preserved, sizes at most 3.
	var chunks [][]Cell
	for lo := 0; lo < len(cells); {
		chunk := Carve(cells, lo, 3)
		chunks = append(chunks, chunk)
		lo += len(chunk)
	}
	if len(chunks) != (len(cells)+2)/3 {
		t.Fatalf("carved %d chunks of %d cells", len(chunks), len(cells))
	}
	flat := 0
	for ci, chunk := range chunks {
		if len(chunk) == 0 || len(chunk) > 3 {
			t.Fatalf("chunk %d has %d cells", ci, len(chunk))
		}
		for _, c := range chunk {
			if c.Index != cells[flat].Index {
				t.Fatalf("carving reordered cell %d", flat)
			}
			flat++
		}
	}
	if flat != len(cells) {
		t.Fatalf("carving covered %d of %d cells", flat, len(cells))
	}
	if got := Carve(cells, len(cells), 3); got != nil {
		t.Fatalf("Carve past the end = %v", got)
	}
	if got := Carve(cells, 1, 0); len(got) != len(cells)-1 {
		t.Fatalf("Carve(size=0) took %d of the %d-cell tail", len(got), len(cells)-1)
	}
	if got := Carve(cells, len(cells)-1, 3); len(got) != 1 {
		t.Fatalf("Carve at the tail clamped to %d cells, want 1", len(got))
	}
}
