package sim

import (
	"context"
	"sync"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// BatchRequest is one multiprogrammed simulation in a batch: a configuration
// point, a workload and a policy kind. Tag is caller-chosen and echoed on
// the result.
type BatchRequest struct {
	Tag      string
	Config   core.Config
	Workload bench.Workload
	Kind     policy.Kind
	// TraceInterval > 0 enables interval tracing for this request alone;
	// 0 inherits the runner's Params.TraceInterval.
	TraceInterval int64
}

// BatchResult pairs a finished request with its outcome. Index is the
// request's position in the submitted slice, so callers can restore
// deterministic order regardless of completion order; exactly one
// BatchResult is delivered per request.
type BatchResult struct {
	Index int
	Tag   string
	Res   WorkloadResult
	Err   error
}

// RunBatch fans the requests over a worker pool bounded by the runner's
// Parallelism and returns a channel of results in completion order. The
// channel is buffered for the whole batch and always closes after exactly
// len(reqs) results, so a batch drains cleanly even if the caller stops
// reading or the context is canceled; once ctx is done, requests not yet
// started complete immediately with Err = ctx.Err() (simulations already in
// flight run to completion — an individual simulation is at most one
// laptop-scale unit of work).
//
// Single-threaded references resolve through the runner's RefCache, so a
// policy x workload cross-product computes each reference once no matter
// how the pool interleaves.
func (r *Runner) RunBatch(ctx context.Context, reqs []BatchRequest) <-chan BatchResult {
	out := make(chan BatchResult, len(reqs))
	workers := r.Params.workers()
	if workers > len(reqs) {
		workers = len(reqs)
	}
	r.queued.Add(int64(len(reqs)))

	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := reqs[i]
				br := BatchResult{Index: i, Tag: req.Tag}
				if err := ctx.Err(); err != nil {
					br.Err = err
				} else {
					every := req.TraceInterval
					if every == 0 {
						every = r.Params.TraceInterval
					}
					br.Res, br.Err = r.RunWorkloadTracedCtx(ctx, req.Config, req.Workload, req.Kind, every)
				}
				r.queued.Add(-1)
				out <- br
			}
		}()
	}
	go func() {
		for i := range reqs {
			idx <- i
		}
		close(idx)
		wg.Wait()
		close(out)
	}()
	return out
}
