// Command repro regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows or series the paper
// reports; EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	repro [-instructions N] [-warmup N] [-parallel N] [-only list] [-store DIR]
//
// -only selects a comma-separated subset of:
//
//	table1, fig4, fig5, predictors, fig9-10, fig11-12, fig13-14,
//	fig15-16, fig17-18, fig20-21, fig22-23
//
// The figure grids (fig9-10 through fig22-23) run as campaigns into one
// result store, so figures share cells (fig11-12 reads fig9-10's), and
// each prints how many cells came from the store and how many it
// simulated. With -store DIR the store persists: a second run simulates
// nothing, and an interrupted one resumes. Without it, repro uses a scratch
// store and removes it on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/experiments"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	instructions := fs.Uint64("instructions", 300_000, "per-thread instruction budget (the paper uses 200M)")
	warmup := fs.Uint64("warmup", 0, "warm-up instructions before measurement (0 = budget/4)")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated experiment subset (empty = all)")
	storeDir := fs.String("store", "", "persistent result store for the figure grids (empty = a scratch store removed on exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Ctrl-C / SIGTERM cancels the batch pools: in-flight simulations
	// finish, queued ones drain immediately, and run returns through its
	// deferred cleanup.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := sim.NewRunner(sim.Params{
		Instructions: *instructions,
		Warmup:       *warmup,
		Parallelism:  *parallel,
	})
	var summaries []campaign.Summary
	grids := &experiments.Campaigns{
		Instructions: *instructions,
		Warmup:       *warmup,
		Parallelism:  *parallel,
		Report:       func(s campaign.Summary) { summaries = append(summaries, s) },
	}

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	list := []experiment{
		{"table1", func() (fmt.Stringer, error) { return experiments.TableI(ctx, runner), nil }},
		{"fig4", func() (fmt.Stringer, error) { return experiments.Figure4(ctx, runner), nil }},
		{"fig5", func() (fmt.Stringer, error) { return experiments.Figure5(ctx, runner), nil }},
		{"predictors", func() (fmt.Stringer, error) { return predictorBundle{experiments.Predictors(ctx, runner)}, nil }},
		{"fig9-10", func() (fmt.Stringer, error) { return grids.Figure9and10(ctx) }},
		{"fig11-12", func() (fmt.Stringer, error) {
			pc, err := grids.Figure9and10(ctx)
			return ipcBundle{pc}, err
		}},
		{"fig13-14", func() (fmt.Stringer, error) { return grids.Figure13and14(ctx) }},
		{"fig15-16", func() (fmt.Stringer, error) { return grids.Figure15and16(ctx) }},
		{"fig17-18", func() (fmt.Stringer, error) { return grids.Figure17and18(ctx) }},
		{"fig20-21", func() (fmt.Stringer, error) { return grids.Figure20and21(ctx) }},
		{"fig22-23", func() (fmt.Stringer, error) { return grids.Figure22and23(ctx) }},
	}

	selected := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if !slices.ContainsFunc(list, func(e experiment) bool { return e.name == s }) {
			fmt.Fprintf(stderr, "unknown experiment %q\n", s)
			return 2
		}
		selected[s] = true
	}

	dir := *storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "repro-store-")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer st.Close()
	grids.Store = st

	fmt.Fprintf(stdout, "# MLP-aware SMT fetch policy reproduction — %d instructions/thread, warmup %d\n\n",
		*instructions, runner.Params.EffectiveWarmup())
	for _, e := range list {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		summaries = summaries[:0]
		res, err := e.run()
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		// An interrupted experiment still renders over the cells that
		// finished; the run is then reported as interrupted below.
		fmt.Fprintf(stdout, "## %s (%.1fs)\n", e.name, time.Since(start).Seconds())
		for _, s := range summaries {
			fmt.Fprintf(stdout, "(campaign: %d cells, %d from store, %d simulated)\n", s.Total, s.Skipped, s.Executed)
		}
		fmt.Fprintf(stdout, "\n%s\n", res)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "interrupted; stopping")
		return 1
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// predictorBundle renders Figures 6, 7 and 8 from one characterization run.
type predictorBundle struct{ p experiments.PredictorsResult }

func (b predictorBundle) String() string {
	return b.p.Figure6String() + "\n" + b.p.Figure7String() + "\n" + b.p.Figure8String()
}

// ipcBundle renders the Figure 11/12 per-thread IPC stacks.
type ipcBundle struct{ pc experiments.PolicyComparison }

func (b ipcBundle) String() string {
	return b.pc.IPCStacks(bench.MLPWorkload) + "\n" + b.pc.IPCStacks(bench.MixedWorkload)
}
