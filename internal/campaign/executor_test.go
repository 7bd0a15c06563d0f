package campaign

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"smtmlp"
	"smtmlp/internal/store"
)

// failingCell is the expansion index whose simulation fails in both runs of
// TestExecutorCommitPathByteIdentical. Its references are still needed by
// the same mix under the other policy, so both refs snapshots hold them.
const failingCell = 4

var errInjected = errors.New("injected per-cell failure")

// failNthGate fails the n-th slot acquisition (0-based) and admits every
// other one. At parallelism 1 the batch pool acquires in submission order,
// so the n-th acquisition is the n-th cell: a deterministic per-cell error.
type failNthGate struct {
	mu    sync.Mutex
	n     int
	calls int
}

func (g *failNthGate) Acquire(context.Context) (func(), error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls++
	if g.calls-1 == g.n {
		return nil, errInjected
	}
	return func() {}, nil
}

// scrambledExecutor simulates every cell up front, then reports them the way
// a remote fleet might: in reverse order, in uneven batches, with one cell
// failed and one cell delivered twice. The second copy carries a bogus
// error that must be ignored; it arrives while the first still waits behind
// the commit cursor. With concurrent set, every batch is reported from its
// own goroutine, all at once, and the duplicate after they all return.
type scrambledExecutor struct{ concurrent bool }

func (e scrambledExecutor) Execute(ctx context.Context, job Job, report func([]Outcome)) ([]smtmlp.RefProfile, error) {
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(job.Instructions), smtmlp.WithWarmup(job.Warmup))
	reqs := make([]smtmlp.Request, len(job.Cells))
	for i, c := range job.Cells {
		reqs[i] = c.Request
	}
	outs := make([]Outcome, len(reqs))
	for br := range eng.RunBatch(ctx, reqs) {
		if br.Err != nil {
			return nil, br.Err
		}
		outs[br.Index] = Outcome{Index: br.Index, Result: br.Result}
		if job.Cells[br.Index].Index == failingCell {
			outs[br.Index] = Outcome{Index: br.Index, Err: errInjected}
		}
	}
	for i, j := 0, len(outs)-1; i < j; i, j = i+1, j-1 {
		outs[i], outs[j] = outs[j], outs[i]
	}
	dup := outs[0]
	dup.Err = errors.New("a duplicate must not be counted")
	var wg sync.WaitGroup
	for lo, size := 0, 1; lo < len(outs); lo, size = lo+size, size%3+1 {
		batch := outs[lo:min(lo+size, len(outs))]
		if e.concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				report(batch)
			}()
			continue
		}
		report(batch)
		if lo == 0 {
			report([]Outcome{dup})
		}
	}
	wg.Wait()
	if e.concurrent {
		report([]Outcome{dup})
	}
	return eng.Cache().Export(), nil
}

// TestExecutorCommitPathByteIdentical: byte-identity between executors is a
// property of Run's one commit path, not of any executor. A fake executor
// that reorders, batches, duplicates and fails cells must leave the same
// store bytes and summary counts as a local run that fails the same cell.
func TestExecutorCommitPathByteIdentical(t *testing.T) {
	spec := tinySpec()

	localDir := t.TempDir()
	localSt, err := store.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run(context.Background(), localSt, spec, Options{
		Parallelism: 1,
		Gate:        &failNthGate{n: failingCell},
	})
	localSt.Close()
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	if local.Total != 12 || local.Executed != 11 || local.Failed != 1 {
		t.Fatalf("local summary %+v, want 11 executed and cell %d failed", local, failingCell)
	}
	wantResults, wantRefs := storeBytes(t, localDir)

	for _, ex := range []scrambledExecutor{{}, {concurrent: true}} {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var progress []Progress
		got, err := Run(context.Background(), st, spec, Options{
			Executor: ex,
			Progress: func(p Progress) { progress = append(progress, p) },
		})
		st.Close()
		if err != nil {
			t.Fatalf("%+v: run: %v", ex, err)
		}
		if got.Total != local.Total || got.Skipped != local.Skipped || got.Executed != local.Executed ||
			got.Failed != local.Failed || got.RefsSaved != local.RefsSaved {
			t.Fatalf("%+v: summary %+v differs from the local run's %+v", ex, got, local)
		}
		if last := progress[len(progress)-1]; last != (Progress{Total: 12, Executed: 11, Failed: 1}) {
			t.Fatalf("%+v: final progress %+v", ex, last)
		}
		// Reverse delivery holds every cell behind the cursor until cell 0
		// arrives, so the whole grid commits at once: the initial snapshot
		// plus exactly one commit.
		if !ex.concurrent && len(progress) != 2 {
			t.Fatalf("progress %+v, want the initial snapshot and one commit", progress)
		}
		gotResults, gotRefs := storeBytes(t, dir)
		if !bytes.Equal(wantResults, gotResults) {
			t.Fatalf("%+v: results.ndjson differs from the local run (%d vs %d bytes)", ex, len(gotResults), len(wantResults))
		}
		if !bytes.Equal(wantRefs, gotRefs) {
			t.Fatalf("%+v: refs.ndjson differs from the local run (%d vs %d bytes)", ex, len(gotRefs), len(wantRefs))
		}
	}
}

// stoppingExecutor reports only the first cell and then returns, as an
// executor does when its context is canceled or its workers are gone.
type stoppingExecutor struct{ cancel context.CancelFunc }

func (e stoppingExecutor) Execute(ctx context.Context, job Job, report func([]Outcome)) ([]smtmlp.RefProfile, error) {
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(job.Instructions), smtmlp.WithWarmup(job.Warmup))
	res, err := eng.RunRequest(ctx, job.Cells[0].Request)
	if err != nil {
		return nil, err
	}
	report([]Outcome{{Index: 0, Result: res}})
	if e.cancel != nil {
		e.cancel()
	}
	return eng.Cache().Export(), nil
}

// TestExecutorStoppedEarly: an executor that returns with cells unreported
// leaves a committed prefix and fails the run, as ErrCanceled when the
// caller canceled and as a plain error otherwise.
func TestExecutorStoppedEarly(t *testing.T) {
	spec := tinySpec()
	for _, canceled := range []bool{false, true} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ex := stoppingExecutor{}
		if canceled {
			ex.cancel = cancel
		}
		sum, err := Run(ctx, st, spec, Options{Executor: ex})
		cancel()
		if err == nil || errors.Is(err, smtmlp.ErrCanceled) != canceled || errors.Is(err, context.Canceled) != canceled {
			t.Fatalf("canceled=%v: run returned %v", canceled, err)
		}
		if sum.Executed != 1 || st.Len() != 1 || sum.RefsSaved == 0 {
			t.Fatalf("canceled=%v: summary %+v with %d stored, want the first cell and its refs", canceled, sum, st.Len())
		}
		st.Close()
	}
}
