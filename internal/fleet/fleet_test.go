// The fleet proof-as-test: a 3-worker in-process fleet — with one worker
// killed mid-run and one lease deliberately double-delivered — must produce
// a store byte-identical to local single-node execution of the same spec.
// Plus the failure edges: hedged straggler re-dispatch, every worker lost,
// and the second run over a complete store being a pure no-op.
package fleet_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
)

// testSpec is a 12-cell campaign (4 two-thread mixes x 3 policies) at a
// laptop-fast budget.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:         "fleet-e2e",
		Instructions: 5_000,
		Warmup:       1_000,
		Policies:     []string{"icount", "flush", "mlpflush"},
		Workloads: campaign.WorkloadSpec{Mixes: [][]string{
			{"mcf", "galgel"}, {"swim", "twolf"}, {"vortex", "parser"}, {"art", "gzip"},
		}},
	}
}

// localGroundTruth runs the spec single-node into a fresh store and returns
// the store directory.
func localGroundTruth(t *testing.T, spec campaign.Spec) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sum, err := campaign.Run(context.Background(), st, spec, campaign.Options{})
	if err != nil {
		t.Fatalf("local ground-truth run: %v", err)
	}
	if sum.Executed != sum.Total || sum.Failed != 0 {
		t.Fatalf("local ground-truth run incomplete: %+v", sum)
	}
	return dir
}

// newWorker spins up one in-process smtserved worker.
func newWorker(t *testing.T, opts ...smtmlp.Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(smtmlp.NewEngine(opts...)))
	t.Cleanup(ts.Close)
	return ts
}

// readStoreFile loads one of the store's NDJSON files.
func readStoreFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertStoresEqual compares the two stores byte for byte.
func assertStoresEqual(t *testing.T, wantDir, gotDir, when string) {
	t.Helper()
	for _, name := range []string{"results.ndjson", "refs.ndjson"} {
		want := readStoreFile(t, wantDir, name)
		got := readStoreFile(t, gotDir, name)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: %s diverges from single-node execution\nlocal (%d bytes):\n%s\nfleet (%d bytes):\n%s",
				when, name, len(want), want, len(got), got)
		}
	}
}

func TestFleetByteEquivalentToLocalRun(t *testing.T) {
	ctx := context.Background()
	spec := testSpec()
	localDir := localGroundTruth(t, spec)

	w1 := newWorker(t)
	w2 := newWorker(t)

	// Worker 3 dies mid-run: it accepts leases normally, but the first time
	// the coordinator comes to collect one, the process "crashes" — from then
	// on every connection (collections, health probes) is dropped cold. The
	// accepted lease is lost with it and must be re-executed elsewhere.
	srv3 := server.New(smtmlp.NewEngine())
	var killMu sync.Mutex
	killed := false
	w3 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		killMu.Lock()
		if !killed && r.URL.Path == "/v1/work/complete" {
			killed = true
		}
		dead := killed
		killMu.Unlock()
		if dead {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
			return
		}
		srv3.ServeHTTP(w, r)
	}))
	t.Cleanup(w3.Close)

	fleetDir := t.TempDir()
	st, err := store.Open(fleetDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum, err := fleet.Run(ctx, st, spec, fleet.Options{
		Workers:        []string{w1.URL, w2.URL, w3.URL},
		LeaseSize:      2, // 12 cells -> 6 leases, spread across 3 workers
		CompleteWait:   200 * time.Millisecond,
		ProbeRetries:   2,
		ProbeBackoff:   2 * time.Millisecond,
		StragglerAfter: -1, // hedging has its own test; keep this run's dispatch accounting exact
	})
	if err != nil {
		t.Fatalf("fleet run: %v (summary %+v)", err, sum)
	}
	if sum.Total != 12 || sum.Skipped != 0 || sum.Executed != 12 || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v", sum)
	}
	if sum.WorkersLost != 1 {
		t.Fatalf("killed one worker, summary counts %d lost (%+v)", sum.WorkersLost, sum)
	}
	if sum.LeasesRetried == 0 {
		t.Fatalf("the dead worker's lease was never re-dispatched: %+v", sum)
	}
	if sum.LeasesDispatched < 6 {
		t.Fatalf("6 chunks need >= 6 lease deliveries, got %d", sum.LeasesDispatched)
	}
	if sum.RefsSaved != 8 { // 8 distinct benchmarks => 8 reference profiles
		t.Fatalf("saved %d reference profiles, want 8", sum.RefsSaved)
	}
	assertStoresEqual(t, localDir, fleetDir, "after the fleet run")

	// Deliberate double delivery: re-lease the campaign's first chunk to a
	// live worker, collect it, and commit the duplicate results and refs
	// through the same merge path. Dedupe-on-append must absorb every byte.
	reqs, fps, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	dupCells := []server.WorkCell{
		{Fingerprint: fps[0], Request: reqs[0]},
		{Fingerprint: fps[1], Request: reqs[1]},
	}
	dup := collectLease(t, w1, server.LeaseRequest{
		LeaseID: "dup-delivery", Instructions: 5_000, Warmup: 1_000, Cells: dupCells,
	})
	recs := make([]store.Record, 0, len(dup.Results))
	for _, wr := range dup.Results {
		if wr.Error != "" || wr.Result == nil {
			t.Fatalf("duplicate lease cell failed: %+v", wr)
		}
		recs = append(recs, store.Record{Fingerprint: wr.Fingerprint, Request: wr.Request, Result: *wr.Result})
	}
	fresh, err := st.AppendBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 0 {
		t.Fatalf("duplicate delivery appended %d fresh records", fresh)
	}
	if _, err := st.MergeRefs(dup.Refs); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, localDir, fleetDir, "after a double-delivered lease")

	// A second fleet run over the complete store is a pure no-op.
	again, err := fleet.Run(ctx, st, spec, fleet.Options{Workers: []string{w1.URL}})
	if err != nil {
		t.Fatalf("no-op rerun: %v", err)
	}
	if again.Skipped != 12 || again.Executed != 0 || again.LeasesDispatched != 0 {
		t.Fatalf("rerun over a complete store did work: %+v", again)
	}
	assertStoresEqual(t, localDir, fleetDir, "after the no-op rerun")
}

// collectLease posts one lease and long-polls it to completion over a real
// HTTP connection.
func collectLease(t *testing.T, ts *httptest.Server, lr server.LeaseRequest) server.CompleteResponse {
	t.Helper()
	body, err := json.Marshal(lr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/work/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Post(ts.URL+"/v1/work/complete", "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"lease_id":%q,"wait_ms":1000}`, lr.LeaseID))))
		if err != nil {
			t.Fatal(err)
		}
		var cr server.CompleteResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cr.Lease.Status == "done" {
			return cr
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease %s stuck %q", lr.LeaseID, cr.Lease.Status)
		}
	}
}

// TestFleetHedgesStragglers verifies hedged re-dispatch: one worker stalls
// every collection far longer than the straggler threshold, so whichever of
// the two chunks it holds must be finished by the healthy worker hedging it.
func TestFleetHedgesStragglers(t *testing.T) {
	spec := testSpec()
	localDir := localGroundTruth(t, spec)

	// Worker 1 executes leases but stalls every collection long enough for
	// the hedge to fire; worker 2 is healthy.
	srv1 := server.New(smtmlp.NewEngine())
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/work/complete" {
			time.Sleep(500 * time.Millisecond)
		}
		srv1.ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	w2 := newWorker(t)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum, err := fleet.Run(context.Background(), st, spec, fleet.Options{
		Workers:        []string{w1.URL, w2.URL},
		LeaseSize:      6, // two chunks: one per worker, then the idle worker hedges
		CompleteWait:   20 * time.Millisecond,
		StragglerAfter: time.Millisecond,
		MaxAttempts:    10,
	})
	if err != nil {
		t.Fatalf("fleet run: %v (summary %+v)", err, sum)
	}
	if sum.Executed != 12 || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v", sum)
	}
	if sum.LeasesDispatched < 3 {
		t.Fatalf("straggling chunk was never hedged: %+v", sum)
	}
	assertStoresEqual(t, localDir, dir, "after a hedged run")
}

// TestFleetAllWorkersLost: a fleet whose only worker is unreachable fails
// loudly, keeping the store untouched and resumable.
func TestFleetAllWorkersLost(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens at this URL anymore

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum, err := fleet.Run(context.Background(), st, testSpec(), fleet.Options{
		Workers:      []string{dead.URL},
		ProbeRetries: 2,
		ProbeBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatalf("run against a dead fleet succeeded: %+v", sum)
	}
	if sum.WorkersLost != 1 {
		t.Fatalf("summary %+v after losing the only worker", sum)
	}
	if st.Len() != 0 {
		t.Fatalf("dead fleet still appended %d results", st.Len())
	}
}

// TestFleetCancellation: canceling the context ends the run with
// smtmlp.ErrCanceled and leaves the store resumable.
func TestFleetCancellation(t *testing.T) {
	w := newWorker(t, smtmlp.WithParallelism(1))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	spec := testSpec()
	spec.Instructions = 500_000 // slow enough to cancel mid-flight
	spec.Warmup = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	sum, err := fleet.Run(ctx, st, spec, fleet.Options{
		Workers:      []string{w.URL},
		LeaseSize:    2,
		CompleteWait: 20 * time.Millisecond,
	})
	if !errors.Is(err, smtmlp.ErrCanceled) {
		t.Fatalf("canceled run returned %v (summary %+v)", err, sum)
	}
}

// TestFleetAdaptiveSizingConverges: in a heterogeneous fleet — two healthy
// workers and one made ~25ms/cell slower by a delay shim — adaptive sizing
// must end the run with the fast workers holding measurably larger leases
// than the slow one, while the merged store stays byte-identical to
// single-node execution (adaptivity moves chunk boundaries, never commit
// order).
func TestFleetAdaptiveSizingConverges(t *testing.T) {
	// A tiny budget keeps execution nearly free next to the slow worker's
	// injected 120ms/cell, so the throughput contrast survives even a
	// single-core CI host where "fast" workers share one saturated CPU.
	spec := campaign.Spec{
		Name:         "fleet-adaptive",
		Instructions: 2_000,
		Warmup:       400,
		Policies:     []string{"icount", "mlpflush"},
		Workloads: campaign.WorkloadSpec{
			Generated: &campaign.Generated{Count: 30, Threads: 2, Seed: 7},
		},
	}
	localDir := localGroundTruth(t, spec)

	w1 := newWorker(t)
	w2 := newWorker(t)
	slow := slowWorker(t, 120*time.Millisecond)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum, err := fleet.Run(context.Background(), st, spec, fleet.Options{
		Workers:      []string{w1.URL, w2.URL, slow.URL},
		LeaseTarget:  400 * time.Millisecond,
		MaxLeaseSize: 16,
		CompleteWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fleet run: %v (summary %+v)", err, sum)
	}
	if sum.Executed != sum.Total || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v", sum)
	}
	assertStoresEqual(t, localDir, dir, "after the adaptive run")

	if len(sum.Workers) != 3 {
		t.Fatalf("per-worker stats %+v", sum.Workers)
	}
	fast, lagging := sum.Workers[0], sum.Workers[2]
	t.Logf("fast worker: %+v", fast)
	t.Logf("slow worker: %+v", lagging)
	if fast.Leases == 0 || fast.Cells == 0 || fast.CellsPerSec <= 0 {
		t.Fatalf("fast worker stats empty: %+v", fast)
	}
	// Race instrumentation slows simulation so much that the injected
	// delay no longer dominates per-cell cost, erasing the contrast the
	// divergence assertion depends on; the byte-equality and wire
	// assertions above/below still hold there.
	if !raceEnabled && fast.LeaseSize*2 < lagging.LeaseSize*3 {
		t.Errorf("adaptive sizing did not diverge: fast lease size %d vs slow %d",
			fast.LeaseSize, lagging.LeaseSize)
	}

	// The run must have compressed: wire bytes strictly below payload
	// bytes in both directions.
	if sum.BytesOutWire >= sum.BytesOut || sum.BytesOut == 0 {
		t.Errorf("requests not compressed: bytes_out=%d wire=%d", sum.BytesOut, sum.BytesOutWire)
	}
	if sum.BytesInWire >= sum.BytesIn || sum.BytesIn == 0 {
		t.Errorf("responses not compressed: bytes_in=%d wire=%d", sum.BytesIn, sum.BytesInWire)
	}
}

// slowWorker wraps a real in-process worker with a shim that delays each
// lease delivery by perCell for every cell it carries — modeling a worker
// whose per-cell throughput is lower — transparently across plain and
// gzip-compressed lease bodies.
func slowWorker(t *testing.T, perCell time.Duration) *httptest.Server {
	t.Helper()
	srv := server.New(smtmlp.NewEngine())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/work/lease" {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
			plain := raw
			if r.Header.Get("Content-Encoding") == "gzip" {
				if zr, err := gzip.NewReader(bytes.NewReader(raw)); err == nil {
					if b, err := io.ReadAll(zr); err == nil {
						plain = b
					}
				}
			}
			var lr server.LeaseRequest
			if json.Unmarshal(plain, &lr) == nil && len(lr.Cells) > 0 {
				time.Sleep(time.Duration(len(lr.Cells)) * perCell)
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetPipelinedDispatch: with the default pipeline depth a single
// driver keeps two leases in flight (lease N+1 posted while N is
// collected); forcing depth 1 restores serial dispatch. Both produce a
// byte-identical store.
func TestFleetPipelinedDispatch(t *testing.T) {
	spec := testSpec()
	localDir := localGroundTruth(t, spec)
	w := newWorker(t)

	run := func(depth int) fleet.Summary {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sum, err := fleet.Run(context.Background(), st, spec, fleet.Options{
			Workers:       []string{w.URL},
			LeaseSize:     2,
			PipelineDepth: depth,
			CompleteWait:  100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("depth-%d run: %v (summary %+v)", depth, err, sum)
		}
		if sum.Executed != 12 || sum.Failed != 0 {
			t.Fatalf("depth-%d summary %+v", depth, sum)
		}
		assertStoresEqual(t, localDir, dir, fmt.Sprintf("after the depth-%d run", depth))
		return sum
	}

	piped := run(0) // 0 = DefaultPipelineDepth
	if got := piped.Workers[0].PeakDepth; got != fleet.DefaultPipelineDepth {
		t.Errorf("pipelined run peaked at depth %d, want %d", got, fleet.DefaultPipelineDepth)
	}
	serial := run(1)
	if got := serial.Workers[0].PeakDepth; got != 1 {
		t.Errorf("serial run peaked at depth %d, want 1", got)
	}
}

// TestFleetPlainWorkerFallback: against a worker that answers every
// collection identity-encoded and as one buffered JSON body (no gzip, no
// NDJSON), the coordinator must decode the plain responses transparently
// and still converge to the byte-identical store.
func TestFleetPlainWorkerFallback(t *testing.T) {
	spec := testSpec()
	localDir := localGroundTruth(t, spec)

	srv := server.New(smtmlp.NewEngine())
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set("Accept-Encoding", "identity")
		r.Header.Del("Accept")
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(plain.Close)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum, err := fleet.Run(context.Background(), st, spec, fleet.Options{
		Workers:      []string{plain.URL},
		LeaseSize:    3,
		CompleteWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fleet run against a plain worker: %v (summary %+v)", err, sum)
	}
	if sum.Executed != 12 || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v", sum)
	}
	assertStoresEqual(t, localDir, dir, "after the plain-response run")
	// Nothing came back compressed: response wire bytes == payload bytes.
	if sum.BytesInWire != sum.BytesIn || sum.BytesIn == 0 {
		t.Errorf("identity responses counted as compressed: bytes_in=%d wire=%d", sum.BytesIn, sum.BytesInWire)
	}
}

// TestFleetRenewalOutlivesTTL: a lease whose execution takes far longer
// than the fleet's lease TTL survives because the driver heartbeats it, so
// slow-but-alive workers complete and commit instead of being cancelled
// mid-execution and retried.
func TestFleetRenewalOutlivesTTL(t *testing.T) {
	spec := campaign.Spec{
		Name:         "fleet-renewal",
		Instructions: 400_000, // one lease far outlives the TTL below
		Warmup:       80_000,
		Policies:     []string{"icount", "mlpflush"},
		Workloads:    campaign.WorkloadSpec{Mixes: [][]string{{"mcf", "galgel"}}},
	}
	localDir := localGroundTruth(t, spec)
	w := newWorker(t, smtmlp.WithParallelism(1))

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const ttl = 400 * time.Millisecond
	sum, err := fleet.Run(context.Background(), st, spec, fleet.Options{
		Workers:      []string{w.URL},
		LeaseSize:    2,
		LeaseTTL:     ttl,
		CompleteWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fleet run: %v (summary %+v)", err, sum)
	}
	if sum.Executed != 2 || sum.Failed != 0 {
		t.Fatalf("fleet summary %+v", sum)
	}
	if sum.LeasesRenewed == 0 {
		t.Errorf("no renewal heartbeats were sent under a %v TTL: %+v", ttl, sum)
	}
	if sum.LeasesRetried != 0 {
		t.Errorf("renewed leases still expired and were retried: %+v", sum)
	}
	assertStoresEqual(t, localDir, dir, "after the renewed run")
}

func TestFleetNoWorkers(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := fleet.Run(context.Background(), st, testSpec(), fleet.Options{}); err == nil {
		t.Fatal("run without workers succeeded")
	}
}
