// Command smtsweep runs a declarative simulation campaign against a
// persistent, content-addressed result store: a JSON spec (policies x
// workloads x configuration grid) expands into requests, the store is
// diffed, and only the missing cells execute. Results commit to the store
// as they finish, in deterministic order, so an interrupted sweep resumes
// exactly where it stopped.
//
// Usage:
//
//	smtsweep -spec spec.json -store DIR [-resume] [-parallelism N] [-quiet]
//	         [-workers http://h1:8344,http://h2:8344 [-lease-size N] [-no-gzip]]
//
// The spec format is internal/campaign.Spec; the minimal useful spec is
//
//	{"workloads": {"tables": ["two_thread"]}}
//
// (all Table II workloads under the paper's six policies on the Table IV
// baseline). Re-running a spec over a store that already holds some of its
// results requires -resume, which fills only the gaps; without -resume the
// overlap is treated as an operator mistake and the sweep refuses to start.
// Ctrl-C interrupts cleanly: everything finished so far stays in the store,
// and a later -resume run completes the grid.
//
// With -workers the cells run on a fleet of remote smtserved workers
// instead of the local engine, through their /v1/work endpoints (workers
// need no flags beyond being up: "smtserved -addr :8344"). Leases are sized
// adaptively to each worker's measured throughput unless -lease-size pins a
// fixed size, and lease and result bodies travel gzip-compressed unless
// -no-gzip. The fleet tolerates worker loss, re-dispatches straggling
// leases and heartbeats long ones; results commit through the same path as
// a local run, so the store comes out byte-identical either way, and an
// interrupted fleet run resumes locally or remotely alike. A fleet run
// prints one more line of lease and wire counters and, unless -quiet, one
// line per worker.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/obs"
	"smtmlp/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("smtsweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	specPath := fs.String("spec", "", `campaign spec file ("-" reads stdin)`)
	storeDir := fs.String("store", "", "result store directory (created if missing)")
	resume := fs.Bool("resume", false, "allow filling the gaps of a partially-run spec")
	parallelism := fs.Int("parallelism", 0, "concurrent local simulations (0 = GOMAXPROCS)")
	workers := fs.String("workers", "", "comma-separated smtserved worker base URLs (http://host:port) to run the cells on")
	leaseSize := fs.Int("lease-size", 0, "with -workers: fixed cells per lease (0 = adaptive)")
	noGzip := fs.Bool("no-gzip", false, "with -workers: send lease and result bodies uncompressed")
	quiet := fs.Bool("quiet", false, "suppress progress and per-worker lines")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Structured logs go to errOut (stderr); stdout keeps the parseable
	// progress and summary lines exactly as before.
	logger, err := obs.NewLogger(errOut, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(errOut, "smtsweep: %v\n", err)
		return 2
	}
	if *specPath == "" || *storeDir == "" {
		fmt.Fprintln(errOut, "smtsweep: -spec and -store are required")
		return 2
	}
	var urls []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, w)
		}
	}
	if *workers != "" && len(urls) == 0 {
		fmt.Fprintln(errOut, "smtsweep: -workers lists no worker URLs")
		return 2
	}

	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(errOut, "smtsweep: %v\n", err)
		return 2
	}
	_, fps, err := spec.Requests()
	if err != nil {
		fmt.Fprintf(errOut, "smtsweep: invalid spec: %v\n", err)
		return 2
	}

	st, err := store.OpenWithLogger(*storeDir, logger)
	if err != nil {
		fmt.Fprintf(errOut, "smtsweep: %v\n", err)
		return 1
	}
	defer st.Close()

	// An overlap without -resume is an operator mistake (wrong store, or an
	// interrupted sweep the operator may not know about): refuse loudly.
	overlap := 0
	for _, fp := range fps {
		if st.Has(fp) {
			overlap++
		}
	}
	if overlap > 0 && !*resume {
		fmt.Fprintf(errOut, "smtsweep: store already holds %d of this spec's %d results; pass -resume to fill the remaining gaps\n",
			overlap, len(fps))
		return 1
	}

	progress := func(p campaign.Progress) {
		if *quiet {
			return
		}
		fmt.Fprintf(out, "progress: %d/%d done (%d cached, %d executed, %d failed)\n",
			p.Skipped+p.Executed+p.Failed, p.Total, p.Skipped, p.Executed, p.Failed)
	}
	opts := campaign.Options{
		Parallelism: *parallelism,
		Progress:    progress,
		Logger:      logger,
	}
	var remote *fleet.Executor
	if len(urls) > 0 {
		remote = fleet.NewExecutor(fleet.Options{
			Workers:       urls,
			LeaseSize:     *leaseSize,
			NoCompression: *noGzip,
			Logger:        logger,
		})
		opts.Executor = remote
	}
	sum, runErr := campaign.Run(ctx, st, spec, opts)

	name := sum.Name
	if name == "" {
		name = "campaign"
	}
	fmt.Fprintf(out, "%s: total=%d skipped=%d executed=%d failed=%d refs_seeded=%d refs_saved=%d\n",
		name, sum.Total, sum.Skipped, sum.Executed, sum.Failed, sum.RefsSeeded, sum.RefsSaved)
	if remote != nil {
		fsum := remote.Summary()
		fmt.Fprintf(out, "fleet: leases=%d renewed=%d retried=%d workers_lost=%d wire_out=%d/%d wire_in=%d/%d\n",
			fsum.LeasesDispatched, fsum.LeasesRenewed, fsum.LeasesRetried, fsum.WorkersLost,
			fsum.BytesOutWire, fsum.BytesOut, fsum.BytesInWire, fsum.BytesIn)
		if !*quiet {
			for _, ws := range fsum.Workers {
				fmt.Fprintf(out, "worker %s: leases=%d cells=%d cells_per_sec=%.1f lease_size=%d peak_depth=%d\n",
					ws.Worker, ws.Leases, ws.Cells, ws.CellsPerSec, ws.LeaseSize, ws.PeakDepth)
			}
		}
	}

	if runErr != nil {
		if errors.Is(runErr, smtmlp.ErrCanceled) {
			fmt.Fprintf(errOut, "smtsweep: interrupted; run again with -resume to finish the remaining %d cells\n",
				sum.Total-sum.Skipped-sum.Executed-sum.Failed)
		} else {
			fmt.Fprintf(errOut, "smtsweep: %v\n", runErr)
		}
		return 1
	}

	rows, err := campaign.Summarize(st, spec)
	if err != nil {
		fmt.Fprintf(errOut, "smtsweep: summarizing: %v\n", err)
		return 1
	}
	campaign.WriteSummaryTable(out, rows)
	return 0
}

// readSpec loads the campaign spec, rejecting unknown fields so a typo'd
// dimension fails loudly instead of silently sweeping the baseline.
func readSpec(path string) (campaign.Spec, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec campaign.Spec
	if err := dec.Decode(&spec); err != nil {
		return campaign.Spec{}, fmt.Errorf("decoding spec %s: %w", path, err)
	}
	return spec, nil
}
