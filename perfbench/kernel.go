package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/store"
)

// The kernel-smt budget matches BENCH_6/BENCH_7, so their four cells can
// be checked against the committed snapshots.
const kernelInstructions, kernelWarmup = 30_000, 10_000

// kernelMixes span the ILP, MLP and mixed classes of Tables II and III at
// two and four threads. The ILP models' working sets fit the L2 and the MLP
// models' do not, so a change that speeds up only miss-heavy cycles shows
// as a difference between the per-class rates.
var kernelMixes = [][]string{
	{"vortex", "parser"}, {"crafty", "twolf"}, // ILP
	{"mcf", "galgel"}, {"swim", "galgel"}, // MLP
	{"swim", "twolf"}, {"apsi", "art"}, // mixed
	{"vortex", "parser", "crafty", "twolf"}, // ILP, #MLP 0
	{"mcf", "galgel", "vortex", "gcc"},      // mixed, #MLP 2
	{"applu", "galgel", "swim", "mesa"},     // MLP, #MLP 4
}

var kernelPolicies = []smtmlp.Policy{smtmlp.ICount, smtmlp.Flush, smtmlp.MLPFlush}

// expected.json records every kernel-smt cell's simulated outcome.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Instructions uint64       `json:"instructions"`
	Warmup       uint64       `json:"warmup"`
	Cells        []cellResult `json:"cells"`
}

func kernelRequests() []smtmlp.Request {
	var reqs []smtmlp.Request
	for _, names := range kernelMixes {
		w := smtmlp.Mix(names...)
		reqs = append(reqs, smtmlp.CrossProduct(smtmlp.DefaultConfig(len(names)), []smtmlp.Workload{w}, kernelPolicies)...)
	}
	return reqs
}

// bench7 reads BENCH_7.json's cells (tag -> cycles, instructions) at the
// kernel-smt budget.
func bench7() (map[string][2]int64, error) {
	data, err := os.ReadFile("BENCH_7.json")
	if err != nil {
		return nil, err
	}
	var snap struct {
		Budget, Warmup uint64
		Workloads      []struct {
			Workload, Policy     string
			Cycles, Instructions int64
		}
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Budget != kernelInstructions || snap.Warmup != kernelWarmup {
		return nil, fmt.Errorf("BENCH_7.json is at budget %d/%d, want %d/%d", snap.Budget, snap.Warmup, kernelInstructions, kernelWarmup)
	}
	out := make(map[string][2]int64)
	for _, w := range snap.Workloads {
		out[w.Workload+"/"+w.Policy] = [2]int64{w.Cycles, w.Instructions}
	}
	return out, nil
}

// passStats accumulates timed passes over a workload's cells.
type passStats struct {
	instrRates, cellRates, secs, latMs []float64
	classTime                          map[string]time.Duration
	classInstr                         map[string]uint64
}

// runKernel is kernel-smt: serial Engine.RunWorkload over a fixed cell set
// with every reference already cached.
func runKernel(ctx context.Context, b *harness) error {
	reqs := kernelRequests()
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	want := make(map[string]cellResult)
	if exp.Instructions == kernelInstructions && exp.Warmup == kernelWarmup {
		for _, c := range exp.Cells {
			want[c.Tag] = c
		}
	}
	b7, err := bench7()
	b.check(err == nil, "reading BENCH_7.json: %v", err)

	runner, err := b.refPhase(ctx, kernelInstructions, kernelWarmup, refKeys(reqs))
	if err != nil {
		return err
	}
	refs := runner.Refs().Export()

	// Set-up loads the references from a store, builds the engine and seeds
	// it with them.
	refDir, err := b.refStore(refs)
	if err != nil {
		return err
	}
	var seeded int
	newEngine := func() (*smtmlp.Engine, func() error, error) {
		st, err := store.Open(refDir)
		if err != nil {
			return nil, nil, err
		}
		eng := smtmlp.NewEngine(smtmlp.WithInstructions(kernelInstructions), smtmlp.WithWarmup(kernelWarmup),
			smtmlp.WithParallelism(1))
		seeded = eng.Cache().Seed(st.Refs())
		return eng, st.Close, nil
	}
	eng, teardown, err := setUp(b, newEngine)
	if err != nil {
		return err
	}
	if err := teardown(); err != nil {
		return err
	}
	b.check(seeded == len(refs), "set-up seeded %d of %d references from the store", seeded, len(refs))

	// Then, untimed, the BENCH_6 cells are checked against BENCH_7.json and
	// expected.json.
	byTag := make(map[string]smtmlp.Request)
	for _, r := range reqs {
		byTag[r.Tag] = r
	}
	for tag, cw := range b7 {
		r, ok := byTag[tag]
		if !b.check(ok, "BENCH_7.json cell %s is not a kernel-smt cell", tag) {
			continue
		}
		res, err := eng.RunWorkload(ctx, r.Config, r.Workload, r.Policy)
		if err != nil {
			return err
		}
		got := resultOf(tag, res)
		b.check(got.Cycles == cw[0] && int64(got.instructions()) == cw[1],
			"%s: cycles=%d instructions=%d, BENCH_7.json has %d and %d", tag, got.Cycles, got.instructions(), cw[0], cw[1])
		if !b.record {
			b.check(got.equal(want[tag]), "%s: %+v, expected.json has %+v", tag, got, want[tag])
		}
	}

	untracedFor, tracedFor := b.split()
	first := make(map[string]cellResult)
	full := make(map[string]smtmlp.WorkloadResult)
	u, err := b.kernelPasses(ctx, eng, reqs, untracedFor, first, full)
	if err != nil {
		return err
	}
	if err := b.refPhaseEnd(ctx); err != nil {
		return err
	}
	if err := setUpEnd(b, newEngine); err != nil {
		return err
	}
	for _, r := range reqs {
		if b.record {
			continue
		}
		w, ok := want[r.Tag]
		b.check(ok && first[r.Tag].equal(w), "%s: %+v, expected.json has %+v", r.Tag, first[r.Tag], w)
	}
	if b.record {
		if err := writeExpected(reqs, first); err != nil {
			return err
		}
	}

	var stps, antts []float64
	for _, r := range reqs {
		stps = append(stps, first[r.Tag].STP)
		antts = append(antts, first[r.Tag].ANTT)
	}
	b.e2e["sim_stp"] = harmonicMean(stps)
	b.e2e["sim_antt"] = mean(antts)
	b.passMetrics(u, len(reqs), "Engine.RunWorkload call")
	for _, class := range []string{"ILP", "MLP", "mixed"} {
		b.report("smt_minstr_per_s.%s %.4f Minstr/s", class,
			float64(u.classInstr[class])/u.classTime[class].Seconds()/1e6)
	}
	b.report("sim_stp %.6f ratio, sim_antt %.6f ratio (simulated, over %d cells)", b.e2e["sim_stp"], b.e2e["sim_antt"], len(reqs))

	if !b.traced {
		return nil
	}
	b.tr.on.Store(true)
	t, err := b.kernelPasses(ctx, eng, reqs, tracedFor, first, full)
	if err != nil {
		return err
	}
	b.layer["sim.smt_s"] = median(t.secs)
	hits, misses, _ := eng.Cache().Stats()
	b.layer["sim.refcache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	b.layer["sim.refcache_misses"] = float64(misses)
	if err := b.layerDrivers(ctx, reqs, first, runner); err != nil {
		return err
	}
	// The store and campaign layers see kernel-smt's cells as a campaign
	// whose results are this run's.
	spec := campaign.Spec{Instructions: kernelInstructions, Warmup: kernelWarmup,
		Policies: []string{"icount", "flush", "mlpflush"}, Workloads: campaign.WorkloadSpec{Mixes: kernelMixes}}
	byFP := make(map[string]smtmlp.WorkloadResult)
	for _, r := range reqs {
		byFP[smtmlp.Fingerprint(r, kernelInstructions, kernelWarmup)] = full[r.Tag]
	}
	if err := b.storeDrivers(spec, byFP, nil); err != nil {
		return err
	}
	b.tr.on.Store(false)
	b.finishTrace(median(u.cellRates), median(t.cellRates), median(u.latMs), median(t.latMs))
	return nil
}

// kernelPasses runs whole passes over the cells, each in a seeded order,
// until d has elapsed, checking every result against the first it saw for
// that cell (recorded into first, and in full into full).
func (b *harness) kernelPasses(ctx context.Context, eng *smtmlp.Engine, reqs []smtmlp.Request, d time.Duration,
	first map[string]cellResult, full map[string]smtmlp.WorkloadResult) (passStats, error) {
	st := passStats{classTime: map[string]time.Duration{}, classInstr: map[string]uint64{}}
	classes := make([]string, len(reqs))
	for i, r := range reqs {
		classes[i] = workloadClass(r.Workload.Benchmarks)
	}
	start := time.Now()
	for len(st.secs) == 0 || time.Since(start) < d {
		root, end := b.tr.open(0, "smtmlp", "pass", "")
		var instr uint64
		p0 := time.Now()
		for _, i := range b.rng.Perm(len(reqs)) {
			r := reqs[i]
			s0 := time.Now()
			res, err := eng.RunWorkload(ctx, r.Config, r.Workload, r.Policy)
			s1 := time.Now()
			b.tr.record(root, "smtmlp", "Engine.RunWorkload", r.Tag, false, s0, s1)
			if err != nil {
				return st, fmt.Errorf("%s: %w", r.Tag, err)
			}
			got := resultOf(r.Tag, res)
			if prev, ok := first[r.Tag]; ok {
				b.check(got.equal(prev), "%s: %+v differs from an earlier run's %+v", r.Tag, got, prev)
			} else {
				first[r.Tag] = got // checked against expected.json by the caller
				full[r.Tag] = res
			}
			n := got.instructions()
			instr += n
			st.latMs = append(st.latMs, ms(s1.Sub(s0)))
			st.classTime[classes[i]] += s1.Sub(s0)
			st.classInstr[classes[i]] += n
		}
		pd := time.Since(p0)
		end()
		st.secs = append(st.secs, pd.Seconds())
		st.instrRates = append(st.instrRates, float64(instr)/pd.Seconds()/1e6)
		st.cellRates = append(st.cellRates, float64(len(reqs))/pd.Seconds())
	}
	return st, nil
}

// passMetrics reports the end-to-end throughput and latency of the
// untraced passes.
func (b *harness) passMetrics(st passStats, cells int, op string) {
	b.e2e["smt_minstr_per_s"] = median(st.instrRates)
	b.e2e["cells_per_s"] = median(st.cellRates)
	b.e2e["latency_p50_ms"] = median(st.latMs)
	tv, tp := tail(st.latMs)
	b.e2e["latency_tail_ms"] = tv
	b.report("smt_minstr_per_s %.4f Minstr/s, cells_per_s %.4f cells/s (median of %d passes of %d cells)",
		median(st.instrRates), median(st.cellRates), len(st.secs), cells)
	b.report("latency per %s: p50 %.3f ms, p%.1f %.3f ms (%d samples)", op, median(st.latMs), tp, tv, len(st.latMs))
}

func writeExpected(reqs []smtmlp.Request, got map[string]cellResult) error {
	exp := expectedFile{Instructions: kernelInstructions, Warmup: kernelWarmup}
	for _, r := range reqs {
		exp.Cells = append(exp.Cells, got[r.Tag])
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "expected.json"), append(data, '\n'), 0o644)
}
