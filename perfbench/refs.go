package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"smtmlp"
	"smtmlp/internal/bench"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// refKey names one single-thread reference: references are keyed by the
// SMT configuration they normalize, so a benchmark used in 2- and 4-thread
// mixes has two.
type refKey struct {
	threads   int
	benchmark string
}

// refKeys lists the distinct references the requests need, in first-use
// order.
func refKeys(reqs []smtmlp.Request) []refKey {
	seen := make(map[refKey]bool)
	var keys []refKey
	for _, r := range reqs {
		for _, name := range r.Workload.Benchmarks {
			k := refKey{r.Config.Threads, name}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// refPhaseMin is the least time the reference phase measures: half of it
// before the workload, which leaves the references cached, and half after
// its untraced section, so the phase samples the host over the whole run
// like the workload's own metrics do.
const refPhaseMin = 4 * time.Second

// refPhase is the reference phase: cold single-thread reference simulation
// through the sim layer's Runner and RefCache, serially, each pass from an
// empty cache computing every reference once. This first half returns the
// last pass's runner, whose cache holds every reference; refPhaseEnd runs
// the second half.
func (b *harness) refPhase(ctx context.Context, instructions, warmup uint64, keys []refKey) (*sim.Runner, error) {
	b.refKeys = keys
	b.refParams = sim.Params{Instructions: instructions, Warmup: warmup, Parallelism: 1}
	// One untimed pass lets the process's lazy set-up (heap growth,
	// first-touch page faults) finish first.
	if _, err := b.refPasses(ctx, 0, false); err != nil {
		return nil, err
	}
	return b.refPasses(ctx, refPhaseMin/2, true)
}

// refPhaseEnd runs the reference phase's second half and reports
// ref_minstr_per_s and sim.* from the median of all its passes.
func (b *harness) refPhaseEnd(ctx context.Context) error {
	if _, err := b.refPasses(ctx, refPhaseMin/2, true); err != nil {
		return err
	}
	b.e2e["ref_minstr_per_s"] = median(b.refRates)
	b.layer["sim.ref_s"] = median(b.refSecs)
	b.report("ref_minstr_per_s %.4f Minstr/s (median of %d cold passes over %d references, %.3f s each)",
		median(b.refRates), len(b.refRates), len(b.refKeys), median(b.refSecs))
	return nil
}

// refPasses runs whole passes for at least d (one pass when d is 0),
// recording each pass's rate when timed.
func (b *harness) refPasses(ctx context.Context, d time.Duration, timed bool) (*sim.Runner, error) {
	if b.traced {
		b.tr.on.Store(true)
		defer b.tr.on.Store(false)
	}
	var runner *sim.Runner
	var lllErr, mlpErr []float64
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		runner = sim.NewRunnerWithCache(b.refParams, sim.NewRefCache(0))
		root, end := b.tr.open(0, "sim", "reference-pass", "")
		lllErr, mlpErr = lllErr[:0], mlpErr[:0]
		var committed uint64
		t0 := time.Now()
		for _, i := range b.rng.Perm(len(b.refKeys)) {
			k := b.refKeys[i]
			s0 := time.Now()
			p, err := runner.STReferenceCtx(ctx, smtmlp.DefaultConfig(k.threads), k.benchmark)
			b.tr.record(root, "sim", "Runner.STReference", fmt.Sprintf("%s/%dt", k.benchmark, k.threads), false, s0, time.Now())
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", k.benchmark, err)
			}
			committed += p.Result.Committed[0]
			paper := bench.MustGet(k.benchmark)
			if paper.PaperLLLPer1K > 0 {
				lllErr = append(lllErr, math.Abs(p.Result.LLLPer1K[0]-paper.PaperLLLPer1K)/paper.PaperLLLPer1K)
			}
			if paper.PaperMLP > 0 {
				mlpErr = append(mlpErr, math.Abs(p.Result.MLP[0]-paper.PaperMLP)/paper.PaperMLP)
			}
		}
		pass := time.Since(t0)
		end()
		b.check(runner.Refs().Len() == len(b.refKeys), "reference pass cached %d of %d references", runner.Refs().Len(), len(b.refKeys))
		if timed {
			b.refRates = append(b.refRates, float64(committed)/pass.Seconds()/1e6)
			b.refSecs = append(b.refSecs, pass.Seconds())
		}
	}
	b.layer["sim.lll_per_1k_err"] = mean(lllErr)
	b.layer["sim.mlp_err"] = mean(mlpErr)
	if !timed {
		b.report("Table I error of the reference runs: LLL/1K %.1f%%, MLP %.1f%% mean relative error (%d and %d runs with a non-zero paper value); the model is otherwise unvalidated",
			100*mean(lllErr), 100*mean(mlpErr), len(lllErr), len(mlpErr))
	}
	return runner, nil
}

// refStore persists the references into a store of their own, untimed, so
// that set-up can load them the way smtserved warm-starts from -store.
func (b *harness) refStore(refs []sim.RefRecord) (string, error) {
	dir, err := b.scratchDir("refs")
	if err != nil {
		return "", err
	}
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	_, err = st.MergeRefs(refs)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return dir, err
}
