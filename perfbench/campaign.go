package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

const campaignInstructions, campaignWarmup = 20_000, 5_000

// The campaign's mixes pair a fixed multiset of benchmarks: the seed decides
// which benchmarks share a mix and the order of the mixes, so every seed
// needs the same twelve references and a comparable amount of simulation.
var (
	campaignILP      = []string{"vortex", "parser", "crafty", "twolf"}
	campaignMLP      = []string{"mcf", "galgel", "swim", "applu"}
	campaignMixedILP = []string{"gcc", "gap"}
	campaignMixedMLP = []string{"mesa", "equake"}
)

// campaignSpec draws campaign-cold's spec from the seed alone, so
// fleet-loopback builds the identical spec for the same seed.
func campaignSpec(seed uint64) campaign.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x63616d706169676e))
	perm := func(xs []string) []string {
		out := make([]string, len(xs))
		for i, j := range rng.Perm(len(xs)) {
			out[i] = xs[j]
		}
		return out
	}
	ilp, mlp := perm(campaignILP), perm(campaignMLP)
	mi, mm := perm(campaignMixedILP), perm(campaignMixedMLP)
	mixes := [][]string{
		{ilp[0], ilp[1]}, {ilp[2], ilp[3]},
		{mlp[0], mlp[1]}, {mlp[2], mlp[3]},
		{mm[0], mi[0]}, {mm[1], mi[1]}, // the MLP thread first, as Table II lists mixed pairs
	}
	rng.Shuffle(len(mixes), func(i, j int) { mixes[i], mixes[j] = mixes[j], mixes[i] })
	return campaign.Spec{
		Name:         "campaign-cold",
		Instructions: campaignInstructions,
		Warmup:       campaignWarmup,
		Policies:     []string{"icount", "flush", "mlpflush"},
		Workloads:    campaign.WorkloadSpec{Mixes: mixes, Threads: 2},
	}
}

// storeFiles is a store's two files, compared byte for byte.
type storeFiles struct{ results, refs []byte }

func readStore(dir string) (storeFiles, error) {
	var f storeFiles
	var err error
	if f.results, err = os.ReadFile(filepath.Join(dir, "results.ndjson")); err != nil {
		return f, err
	}
	f.refs, err = os.ReadFile(filepath.Join(dir, "refs.ndjson"))
	return f, err
}

// refsFile renders references the way the store persists them.
func refsFile(refs []sim.RefRecord) []byte {
	var buf bytes.Buffer
	for _, r := range refs {
		line, _ := json.Marshal(r) // plain structs of numbers and strings always encode
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// campaignTruth is what set-up establishes for the campaign-cold spec: the
// store bytes a correct run produces and the simulated totals.
type campaignTruth struct {
	files        storeFiles
	records      []store.Record
	cells        int
	instructions uint64
	stp, antt    float64
}

func (t campaignTruth) byFingerprint() map[string]smtmlp.WorkloadResult {
	out := make(map[string]smtmlp.WorkloadResult, len(t.records))
	for _, rec := range t.records {
		out[rec.Fingerprint] = rec.Result
	}
	return out
}

// campaignGroundTruth runs the spec locally into a fresh store and checks it:
// every cell executed, refs.ndjson equal to the references the reference
// phase computed, and two seeded cells equal to a direct Engine.RunRequest.
func (b *harness) campaignGroundTruth(ctx context.Context, spec campaign.Spec, runner *sim.Runner) (campaignTruth, error) {
	var t campaignTruth
	dir, err := b.scratchDir("truth")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return t, err
	}
	sum, err := campaign.Run(ctx, st, spec, campaign.Options{Parallelism: b.nproc})
	t.records = st.Records()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return t, fmt.Errorf("ground-truth campaign: %w", err)
	}
	t.cells = sum.Total
	b.check(sum.Executed == sum.Total && sum.Failed == 0, "ground-truth campaign summary %+v", sum)
	if t.files, err = readStore(dir); err != nil {
		return t, err
	}
	b.check(bytes.Equal(t.files.refs, refsFile(runner.Refs().Export())),
		"refs.ndjson differs from the references computed directly")

	var stps, antts []float64
	for _, rec := range t.records {
		for _, th := range rec.Result.Threads {
			t.instructions += th.Committed
		}
		stps = append(stps, rec.Result.STP)
		antts = append(antts, rec.Result.ANTT)
	}
	t.stp, t.antt = harmonicMean(stps), mean(antts)

	instr, warm := spec.Params()
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(instr), smtmlp.WithWarmup(warm), smtmlp.WithParallelism(1))
	eng.Cache().Seed(runner.Refs().Export())
	for _, i := range b.rng.Perm(len(t.records))[:2] {
		rec := t.records[i]
		res, err := eng.RunRequest(ctx, rec.Request)
		if err != nil {
			return t, err
		}
		got, _ := json.Marshal(res)
		want, _ := json.Marshal(rec.Result)
		b.check(bytes.Equal(got, want), "%s: stored result differs from a direct Engine.RunRequest", rec.Request.Tag)
	}
	return t, nil
}

// runCampaign is campaign-cold: repeated local campaign.Run of one spec into
// fresh stores with cold reference caches, each followed by a resume pass
// that must find every cell present.
func runCampaign(ctx context.Context, b *harness) error {
	spec := campaignSpec(b.seed)
	reqs, _, err := spec.Requests()
	if err != nil {
		return err
	}
	instr, warm := spec.Params()
	runner, err := b.refPhase(ctx, instr, warm, refKeys(reqs))
	if err != nil {
		return err
	}
	truth, err := b.campaignGroundTruth(ctx, spec, runner)
	if err != nil {
		return err
	}
	b.e2e["sim_stp"], b.e2e["sim_antt"] = truth.stp, truth.antt
	b.report("sim_stp %.6f ratio, sim_antt %.6f ratio (simulated, over %d cells)", truth.stp, truth.antt, truth.cells)

	untracedFor, tracedFor := b.split()
	u, err := b.campaignIterations(ctx, spec, truth, untracedFor)
	if err != nil {
		return err
	}
	if err := b.refPhaseEnd(ctx); err != nil {
		return err
	}
	b.reportSetup(u.setupS)
	b.report("campaign.Run with a cold cache, parallelism %d, %d cells:", b.nproc, truth.cells)
	b.passMetrics(u.passStats, truth.cells, "campaign")
	b.report("resume pass (store.Open + campaign.MissingCells, nothing to run): median %.3f ms", 1000*median(u.resumeS))
	if !b.traced {
		return nil
	}

	b.tr.on.Store(true)
	t, err := b.campaignIterations(ctx, spec, truth, tracedFor)
	if err != nil {
		return err
	}
	if err := b.storeDrivers(spec, truth.byFingerprint(), truth.files.results); err != nil {
		return err
	}
	want := make(map[string]cellResult)
	for _, rec := range truth.records {
		want[rec.Request.Tag] = resultOf(rec.Request.Tag, rec.Result)
	}
	if err := b.layerDrivers(ctx, diagonal(reqs, len(spec.Policies)), want, runner); err != nil {
		return err
	}
	b.tr.on.Store(false)
	b.layer["campaign.run_s"] = median(u.secs)
	b.layer["campaign.resume_s"] = median(u.resumeS)
	b.layer["sim.smt_s"] = median(u.secs)
	b.layer["sim.refcache_hit_ratio"] = t.hitRatio
	b.layer["sim.refcache_misses"] = t.misses
	b.layer["smtmlp.batch_wait_ms"] = t.batchWaitMs
	b.layer["smtmlp.queue_depth_peak"] = float64(truth.cells)
	b.finishTrace(median(u.cellRates), median(t.cellRates), median(u.latMs), median(t.latMs))
	return nil
}

// campaignStats adds set-up, the resume pass and cache counters to
// passStats.
type campaignStats struct {
	passStats
	setupS      []float64
	resumeS     []float64
	hitRatio    float64
	misses      float64
	batchWaitMs float64
}

// openCampaign is a campaign's set-up, the steps smtsweep takes before
// campaign.Run: decode the spec, expand it, open a store in a new directory
// and count the spec's cells the store already holds, which must be none.
func (b *harness) openCampaign(specJSON []byte, name string) (campaign.Spec, string, *store.Store, error) {
	var spec campaign.Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return spec, "", nil, err
	}
	_, fps, err := spec.Requests()
	if err != nil {
		return spec, "", nil, err
	}
	dir, err := b.scratchDir(name)
	if err != nil {
		return spec, "", nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return spec, "", nil, err
	}
	overlap := 0
	for _, fp := range fps {
		if st.Has(fp) {
			overlap++
		}
	}
	b.check(overlap == 0, "a new store already holds %d of the spec's cells", overlap)
	return spec, dir, st, nil
}

// campaignIterations runs the spec into fresh stores until d has elapsed;
// one campaign is one pass. Each campaign's set-up, openCampaign and an
// empty reference cache, is timed on its own.
func (b *harness) campaignIterations(ctx context.Context, spec campaign.Spec, truth campaignTruth, d time.Duration) (campaignStats, error) {
	var st campaignStats
	var waits []float64
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	start := time.Now()
	for len(st.secs) == 0 || time.Since(start) < d {
		setup := time.Now()
		spec, dir, s, err := b.openCampaign(specJSON, "campaign")
		if err != nil {
			return st, err
		}
		cache := smtmlp.NewCache(0)
		st.setupS = append(st.setupS, time.Since(setup).Seconds())
		root, end := b.tr.open(0, "campaign", "campaign.Run", "")
		// Traced runs watch each cell through a gate in both halves, so the
		// halves differ only in whether spans are kept.
		var gate smtmlp.SlotGate
		sg := &spanGate{tr: b.tr, parent: root, submitted: time.Now()}
		if b.traced {
			gate = sg
		}
		s0 := time.Now()
		sum, err := campaign.Run(ctx, s, spec, campaign.Options{Cache: cache, Parallelism: b.nproc, Gate: gate})
		wall := time.Since(s0)
		end()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return st, err
		}
		b.check(sum.Executed == truth.cells && sum.Failed == 0, "campaign summary %+v", sum)
		waits = append(waits, sg.meanWaitMs())
		hits, misses, _ := cache.Stats()
		st.hitRatio = float64(hits) / float64(max(hits+misses, 1))
		st.misses = float64(misses)

		r0 := time.Now()
		rid, rend := b.tr.open(0, "campaign", "resume", "")
		s0 = time.Now()
		s2, err := store.Open(dir)
		b.tr.record(rid, "store", "store.Open", "", false, s0, time.Now())
		if err != nil {
			return st, err
		}
		missing, total, err := campaign.MissingCells(s2, spec)
		resume := time.Since(r0)
		rend()
		s2.Close()
		if err != nil {
			return st, err
		}
		b.check(len(missing) == 0 && total == truth.cells, "resume pass found %d of %d cells missing", len(missing), total)

		files, err := readStore(dir)
		if err != nil {
			return st, err
		}
		b.check(bytes.Equal(files.results, truth.files.results) && bytes.Equal(files.refs, truth.files.refs),
			"campaign store differs from the ground-truth run's")
		os.RemoveAll(dir)

		st.secs = append(st.secs, wall.Seconds())
		st.latMs = append(st.latMs, ms(wall))
		st.cellRates = append(st.cellRates, float64(sum.Executed)/wall.Seconds())
		st.instrRates = append(st.instrRates, float64(truth.instructions)/wall.Seconds()/1e6)
		st.resumeS = append(st.resumeS, resume.Seconds())
	}
	st.batchWaitMs = mean(waits)
	return st, nil
}

// storeDrivers times the campaign and store layers' own calls on the
// workload's cells: expanding spec against an empty store, replaying the
// run's results (by fingerprint) into fresh stores through Append and
// AppendBatch, and reopening the full store. wantFile, when set, is the
// results.ndjson the replay must reproduce byte for byte.
func (b *harness) storeDrivers(spec campaign.Spec, results map[string]smtmlp.WorkloadResult, wantFile []byte) error {
	root, end := b.tr.open(0, "store", "store-drivers", "")
	defer end()
	reqs, fps, err := spec.Requests()
	if err != nil {
		return err
	}
	records := make([]store.Record, len(reqs))
	for i, req := range reqs {
		res, ok := results[fps[i]]
		if !ok {
			return fmt.Errorf("no result for %s", req.Tag)
		}
		records[i] = store.Record{Fingerprint: fps[i], Request: req, Result: res}
	}
	var expand, appendUs, batchUs, open []float64
	for rep := 0; rep < 5; rep++ {
		dir, err := b.scratchDir("replay")
		if err != nil {
			return err
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		s0 := time.Now()
		if _, _, err := spec.Requests(); err != nil {
			return err
		}
		missing, _, err := campaign.MissingCells(st, spec)
		expand = append(expand, time.Since(s0).Seconds())
		b.tr.record(root, "campaign", "Spec.Requests+MissingCells", "", false, s0, time.Now())
		if err != nil {
			return err
		}
		b.check(len(missing) == len(records), "an empty store is missing %d of %d cells", len(missing), len(records))

		s0 = time.Now()
		for _, rec := range records {
			if _, err := st.Append(rec); err != nil {
				return err
			}
		}
		appendUs = append(appendUs, float64(time.Since(s0).Microseconds())/float64(len(records)))
		b.tr.record(root, "store", "Store.Append", "", false, s0, time.Now())
		if err := st.Close(); err != nil {
			return err
		}
		file, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
		if err != nil {
			return err
		}
		if wantFile != nil {
			b.check(bytes.Equal(file, wantFile), "records replayed through Append differ from the campaign's")
		}
		b.layer["store.bytes_per_cell"] = float64(len(file)) / float64(len(records))

		s0 = time.Now()
		st, err = store.Open(dir)
		open = append(open, time.Since(s0).Seconds())
		b.tr.record(root, "store", "store.Open", "", false, s0, time.Now())
		if err != nil {
			return err
		}
		missing, _, err = campaign.MissingCells(st, spec)
		b.check(err == nil && len(missing) == 0 && st.Len() == len(records),
			"reopened store holds %d of %d records, %d missing", st.Len(), len(records), len(missing))
		st.Close()
		os.RemoveAll(dir)

		dir, err = b.scratchDir("replay-batch")
		if err != nil {
			return err
		}
		if st, err = store.Open(dir); err != nil {
			return err
		}
		s0 = time.Now()
		n, err := st.AppendBatch(records)
		batchUs = append(batchUs, float64(time.Since(s0).Microseconds())/float64(len(records)))
		b.tr.record(root, "store", "Store.AppendBatch", "", false, s0, time.Now())
		st.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		b.check(n == len(records), "AppendBatch added %d of %d records", n, len(records))
	}
	b.layer["campaign.expand_s"] = median(expand)
	b.layer["store.append_us"] = median(appendUs)
	b.layer["store.append_batch_us"] = median(batchUs)
	b.layer["store.open_s"] = median(open)
	return nil
}
