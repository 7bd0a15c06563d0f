package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"

	"smtmlp"
	"smtmlp/internal/metrics"
	"smtmlp/internal/obs"
	"smtmlp/internal/store"
)

// Cell is one unit of campaign work: a request, its content address, and its
// position in the spec's deterministic expansion. Run hands an Executor the
// missing cells in expansion order and commits their outcomes in that order
// regardless of completion order, which is the store byte-determinism
// contract.
type Cell struct {
	// Index is the cell's position in Spec.Requests' expansion.
	Index int `json:"index"`
	// Fingerprint content-addresses the cell (smtmlp.Fingerprint under the
	// spec's resolved budget).
	Fingerprint string `json:"fp"`
	// Request is the simulation to run.
	Request smtmlp.Request `json:"request"`
}

// MissingCells expands the spec and diffs it against the store: it returns
// the cells not yet persisted, in expansion order, along with the total
// expansion size. Run hands exactly this work list to its Executor, local
// or remote, which is why their stores converge to the same bytes.
func MissingCells(st *store.Store, spec Spec) (missing []Cell, total int, err error) {
	reqs, fps, err := spec.Requests()
	if err != nil {
		return nil, 0, err
	}
	for i, fp := range fps {
		if st.Has(fp) {
			continue
		}
		missing = append(missing, Cell{Index: i, Fingerprint: fp, Request: reqs[i]})
	}
	return missing, len(reqs), nil
}

// Carve slices the next contiguous chunk of at most size cells starting at
// offset lo, clamped to the tail of cells (size <= 0 takes the whole tail).
// It is the fleet executor's chunking primitive: however chunk sizes are
// chosen, carving contiguously from the expansion order keeps every chunk a
// run of neighbouring cells. Returns nil when lo is past the end.
func Carve(cells []Cell, lo, size int) []Cell {
	if lo < 0 || lo >= len(cells) {
		return nil
	}
	if size <= 0 {
		size = len(cells) - lo
	}
	hi := lo + size
	if hi > len(cells) {
		hi = len(cells)
	}
	return cells[lo:hi:hi]
}

// Job is the work Run hands an Executor: the missing cells in expansion
// order and the budget they were fingerprinted under.
type Job struct {
	Cells        []Cell
	Instructions uint64
	Warmup       uint64
}

// Outcome is one finished cell of a Job.
type Outcome struct {
	// Index is the cell's position in Job.Cells (not Cell.Index).
	Index  int
	Result smtmlp.WorkloadResult
	// Err is a deterministic per-cell failure: the cell counts as failed and
	// is not persisted. A cell stopped by cancellation is not an outcome; it
	// is simply never reported.
	Err error
}

// Executor runs a campaign's missing cells: the local engine pool (the
// default) or a remote fleet (internal/fleet). It reports each finished
// cell through report, in any order and in batches of any size; report is
// safe for concurrent use and ignores cells already reported. Execute
// returns the single-threaded reference profiles the cells used, also when
// it stops early, and stops promptly once ctx is canceled.
//
// Executors never touch the store: Run orders, commits and counts every
// outcome, so any executor yields the same store bytes.
type Executor interface {
	Execute(ctx context.Context, job Job, report func([]Outcome)) ([]smtmlp.RefProfile, error)
}

// Options tunes campaign execution.
type Options struct {
	// Executor runs the missing cells; nil runs them on a local engine
	// configured by Cache, Parallelism and Gate, which a non-nil Executor
	// ignores.
	Executor Executor
	// Cache shares an existing reference cache (e.g. a long-lived service
	// engine's) with the campaign's engine; nil uses a private cache. Either
	// way the cache is seeded from the store's persisted references before
	// execution, and new references are merged back afterwards.
	Cache *smtmlp.Cache
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Gate, when set, admits each cell at the engine-slot boundary (the
	// multi-tenant scheduler of a service hosting this campaign). Gating
	// reorders execution only; commits stay in submission order, so the
	// store bytes are identical with or without a gate.
	Gate smtmlp.SlotGate
	// Progress, when set, is invoked once before execution and after every
	// commit (each accounts for one or more persisted or failed cells).
	// Calls are sequential.
	Progress func(Progress)
	// Logger receives structured campaign lifecycle logs (expansion size,
	// completion). Nil discards.
	Logger *slog.Logger
}

// Progress is a live campaign snapshot.
type Progress struct {
	// Total is the grid size; Skipped cells were already in the store.
	Total, Skipped int
	// Executed cells ran and were persisted this run; Failed cells ran and
	// failed deterministically (they are not persisted).
	Executed, Failed int
}

// Summary reports a finished (or interrupted) campaign run.
type Summary struct {
	Name string `json:"name,omitempty"`
	// Total = Skipped + Executed + Failed when the run completed; an
	// interrupted run accounts the rest as neither executed nor failed.
	Total    int `json:"total"`
	Skipped  int `json:"skipped"`
	Executed int `json:"executed"`
	Failed   int `json:"failed"`
	// RefsSeeded references were warm-started from the store; RefsSaved new
	// references were persisted back. CacheMisses counts reference
	// simulations actually run by this campaign (0 on a fully warm-started
	// store) — a delta, so a shared service cache's prior traffic does not
	// leak in. RefsSeeded and CacheMisses count the local engine only.
	RefsSeeded  int    `json:"refs_seeded"`
	RefsSaved   int    `json:"refs_saved"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Run executes the spec against the store: expand, diff, hand only the
// missing cells to the executor, and commit each finished result — in
// submission order — to the store. The default local executor builds its
// engine from the spec's budget (so fingerprints and results always agree)
// and warm-starts it from the store's persisted single-threaded references.
//
// Cancellation is clean and resumable: on ctx cancellation the executor
// stops, everything already committed stays committed, the references
// returned so far are persisted, and Run returns the partial Summary with
// an error matching smtmlp.ErrCanceled (and context.Canceled). Because
// results are committed strictly in submission order and the simulator is
// deterministic, re-running the same spec after any interruption yields a
// store byte-identical to an uninterrupted run.
func Run(ctx context.Context, st *store.Store, spec Spec, opts Options) (Summary, error) {
	sum := Summary{Name: spec.Name}
	// Diff against the store: only the missing cells execute. Because
	// results commit in submission order, the persisted set after an
	// interruption is a prefix of the (deduplicated) expansion with
	// deterministic failures removed — so the missing cells are exactly the
	// suffix, and the resumed appends continue where the interrupted run
	// stopped.
	log := opts.Logger
	if log == nil {
		log = obs.Discard()
	}
	cells, total, err := MissingCells(st, spec)
	if err != nil {
		return sum, err
	}
	sum.Total = total
	sum.Skipped = total - len(cells)
	log.Info("campaign start",
		"name", spec.Name, "total", total, "skipped", sum.Skipped, "missing", len(cells))

	exec := opts.Executor
	var local *engineExecutor
	if exec == nil {
		local = &engineExecutor{opts: opts, seed: st.Refs()}
		exec = local
	}
	// Own cancel handle: if persisting fails mid-campaign the executor must
	// stop too, or it would simulate the remaining grid into results nobody
	// commits.
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := &committer{st: st, cells: cells, sum: &sum, progress: opts.Progress,
		stop: cancel, ready: make(map[int]Outcome)}
	c.reportProgress()

	instructions, warmup := spec.Params()
	refs, runErr := exec.Execute(ectx, Job{Cells: cells, Instructions: instructions, Warmup: warmup}, c.report)

	// Persist the references computed so far — also on cancellation, so the
	// resumed run warm-starts from them.
	saved, mergeErr := st.MergeRefs(refs)
	sum.RefsSaved = saved
	if local != nil {
		sum.RefsSeeded, sum.CacheMisses = local.seeded, local.misses
	}
	c.mu.Lock()
	if c.err != nil {
		runErr = c.err
	}
	unreported := len(cells) - c.next
	c.mu.Unlock()
	switch {
	case runErr != nil:
	case unreported > 0 && ctx.Err() != nil:
		runErr = fmt.Errorf("campaign: %w: %w", smtmlp.ErrCanceled, ctx.Err())
	case unreported > 0:
		runErr = fmt.Errorf("campaign: executor stopped with %d cells unreported", unreported)
	default:
		runErr = mergeErr
	}
	if runErr != nil {
		log.Warn("campaign stopped",
			"name", spec.Name, "executed", sum.Executed, "failed", sum.Failed, "err", runErr)
	} else {
		log.Info("campaign finished",
			"name", spec.Name, "executed", sum.Executed, "failed", sum.Failed,
			"refs_saved", sum.RefsSaved)
	}
	return sum, runErr
}

// committer is the one commit path of every campaign, local or remote: a
// reorder buffer that persists each contiguous run of finished cells at the
// cursor with one store.AppendBatch. A deterministic per-cell failure is
// skipped (an uninterrupted run would skip it identically); a cell that is
// never reported stops the cursor for good, because cells behind it must be
// re-executed for the store to stay a prefix of the expansion order.
type committer struct {
	st       *store.Store
	cells    []Cell
	sum      *Summary
	progress func(Progress)
	stop     context.CancelFunc

	mu    sync.Mutex
	ready map[int]Outcome // reported, awaiting the cursor
	next  int             // cells [0, next) are accounted for
	err   error           // first persistence failure; later reports are dropped
}

func (c *committer) report(outs []Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	for _, o := range outs {
		if o.Index < c.next || o.Index >= len(c.cells) {
			continue
		}
		if _, dup := c.ready[o.Index]; !dup {
			c.ready[o.Index] = o
		}
	}
	var recs []store.Record
	failed := 0
	for {
		o, ok := c.ready[c.next]
		if !ok {
			break
		}
		delete(c.ready, c.next)
		if o.Err != nil {
			failed++
		} else {
			cell := c.cells[c.next]
			recs = append(recs, store.Record{Fingerprint: cell.Fingerprint, Request: cell.Request, Result: o.Result})
		}
		c.next++
	}
	if len(recs) == 0 && failed == 0 {
		return
	}
	// A concurrent campaign may have raced us to a cell; the deduplicating
	// append keeps the incumbent, and (the simulator being deterministic)
	// the result is identical either way.
	if _, err := c.st.AppendBatch(recs); err != nil {
		c.err = fmt.Errorf("campaign: persisting %d results: %w", len(recs), err)
		c.stop()
		return
	}
	c.sum.Executed += len(recs)
	c.sum.Failed += failed
	// Under the lock on purpose: Progress calls must stay sequential and in
	// commit order even when an executor reports from several goroutines.
	c.reportProgress()
}

func (c *committer) reportProgress() {
	if c.progress != nil {
		c.progress(Progress{Total: c.sum.Total, Skipped: c.sum.Skipped,
			Executed: c.sum.Executed, Failed: c.sum.Failed})
	}
}

// engineExecutor is the default Executor: the cells fan out over a local
// engine's batch pool, warm-started from the store's persisted references.
type engineExecutor struct {
	opts Options
	seed []smtmlp.RefProfile
	// Set by Execute for the summary.
	seeded int
	misses uint64
}

func (e *engineExecutor) Execute(ctx context.Context, job Job, report func([]Outcome)) ([]smtmlp.RefProfile, error) {
	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(job.Instructions),
		smtmlp.WithWarmup(job.Warmup),
		smtmlp.WithParallelism(e.opts.Parallelism),
		smtmlp.WithCache(e.opts.Cache),
		smtmlp.WithSlotGate(e.opts.Gate),
	)
	e.seeded = eng.Cache().Seed(e.seed)
	_, missesBefore, _ := eng.Cache().Stats()
	reqs := make([]smtmlp.Request, len(job.Cells))
	for i, c := range job.Cells {
		reqs[i] = c.Request
	}
	for br := range eng.RunBatch(ctx, reqs) {
		if br.Err != nil && errors.Is(br.Err, smtmlp.ErrCanceled) {
			continue
		}
		report([]Outcome{{Index: br.Index, Result: br.Result, Err: br.Err}})
	}
	_, missesAfter, _ := eng.Cache().Stats()
	e.misses = missesAfter - missesBefore
	return eng.Cache().Export(), nil
}

// SummaryRow aggregates one (configuration point, policy) cell of a
// campaign across its workloads, using the paper's averaging rules
// (harmonic mean for STP, arithmetic mean for ANTT).
type SummaryRow struct {
	Config    string  `json:"config"`
	Policy    string  `json:"policy"`
	Workloads int     `json:"workloads"`
	STP       float64 `json:"stp"`
	ANTT      float64 `json:"antt"`
}

// Summarize aggregates the spec's persisted results from the store into one
// row per (configuration point, policy), in expansion order. Cells not yet
// in the store are simply absent from the averages, so a partially-run
// campaign summarizes over what exists.
func Summarize(st *store.Store, spec Spec) ([]SummaryRow, error) {
	reqs, fps, err := spec.Requests()
	if err != nil {
		return nil, err
	}
	type cell struct{ stps, antts []float64 }
	cells := make(map[string]*cell)
	var order []string
	for i, req := range reqs {
		rec, ok := st.Get(fps[i])
		if !ok {
			continue
		}
		label, _, _ := strings.Cut(req.Tag, "/")
		key := label + "\x00" + req.Policy.String()
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
			order = append(order, key)
		}
		c.stps = append(c.stps, rec.Result.STP)
		c.antts = append(c.antts, rec.Result.ANTT)
	}
	rows := make([]SummaryRow, 0, len(order))
	for _, key := range order {
		c := cells[key]
		label, policy, _ := strings.Cut(key, "\x00")
		rows = append(rows, SummaryRow{
			Config:    label,
			Policy:    policy,
			Workloads: len(c.stps),
			STP:       metrics.HarmonicMean(c.stps),
			ANTT:      metrics.ArithmeticMean(c.antts),
		})
	}
	return rows, nil
}

// WriteSummaryTable renders the per-(config, policy) aggregate rows as an
// aligned text table — cmd/smtsweep's output format.
func WriteSummaryTable(out io.Writer, rows []SummaryRow) {
	if len(rows) == 0 {
		fmt.Fprintln(out, "no results to summarize")
		return
	}
	wc, wp := len("config"), len("policy")
	for _, r := range rows {
		if len(r.Config) > wc {
			wc = len(r.Config)
		}
		if len(r.Policy) > wp {
			wp = len(r.Policy)
		}
	}
	fmt.Fprintf(out, "%-*s  %-*s  %9s  %9s  %9s\n", wc, "config", wp, "policy", "workloads", "STP", "ANTT")
	for _, r := range rows {
		fmt.Fprintf(out, "%-*s  %-*s  %9d  %9.3f  %9.3f\n", wc, r.Config, wp, r.Policy, r.Workloads, r.STP, r.ANTT)
	}
	fmt.Fprintln(out, "note: STP harmonic-mean (higher better), ANTT arithmetic-mean (lower better), per the paper")
}
