// The /v1/work endpoints: the worker half of distributed campaign
// execution. A fleet coordinator (internal/fleet, smtsweep -workers) carves a
// campaign's missing cells into leases and delivers each lease to a worker
// with POST /v1/work/lease; the worker executes the cells asynchronously
// through its own per-lease engine (sharing the server's reference cache)
// and the coordinator collects the finished results — plus the
// single-threaded reference profiles the lease needed — with a long-polling
// POST /v1/work/complete.
//
// The protocol is built for an unreliable fleet:
//
//   - Leases are idempotent on lease_id: re-POSTing a lease the worker
//     already holds (the coordinator's 202 got lost) returns the current
//     status without restarting execution.
//   - Results are content-addressed: every cell carries the campaign
//     fingerprint, and the worker verifies it against the request before
//     accepting the lease, so a coordinator/worker version skew cannot
//     poison a store.
//   - In-flight leases are bounded (worker_busy beyond the bound) and every
//     lease carries a TTL; an uncollected lease expires, its execution is
//     canceled and its state dropped, so a dead coordinator cannot pin
//     worker memory.
//   - Workers never see the store. They are pure executors; all persistence
//     and ordering happens at the coordinator, which is what makes retries
//     and duplicate deliveries converge (dedupe-on-append by fingerprint).
//
// The wire is built for throughput on large leases:
//
//   - Request bodies may be gzip-compressed (Content-Encoding: gzip).
//   - /v1/work/complete responses honor Accept-Encoding: gzip, and with
//     Accept: application/x-ndjson the results are streamed one NDJSON line
//     at a time (lease line, then result lines in cell order, then ref
//     lines) instead of one buffered JSON array, so encoding is O(1) in the
//     lease size on both ends of the connection.
//   - Re-POSTing a held lease_id renews its TTL (the heartbeat that keeps a
//     slow-but-alive worker's long lease from being expired mid-execution);
//     a cells-free body {"lease_id": ...} is the cheap renewal form.
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtmlp"
	"smtmlp/internal/obs"
	"smtmlp/internal/sim"
	"smtmlp/internal/tenant"
)

// Defaults for the work-lease bounds.
const (
	// DefaultMaxLeases bounds concurrently-held (uncollected) leases.
	DefaultMaxLeases = 4
	// DefaultLeaseTTL is how long an uncollected lease survives before the
	// worker cancels it and drops its state. A coordinator that needs longer
	// renews by re-POSTing the lease_id before the TTL elapses.
	DefaultLeaseTTL = 10 * time.Minute
	// maxCompleteWait caps the long-poll duration of /v1/work/complete; a
	// larger wait_ms is clamped and the effective value returned as the
	// response's wait_ms field.
	maxCompleteWait = 30 * time.Second
	// maxWorkBodyBytes caps a /v1/work request body after gzip decompression
	// (the wire bytes are capped at maxBodyBytes before inflation).
	maxWorkBodyBytes = 8 << 20
)

// WorkCell is one leased simulation: the campaign's content address plus the
// full request. The worker recomputes the fingerprint under the lease's
// budget and rejects the lease on a mismatch.
type WorkCell struct {
	Fingerprint string         `json:"fp"`
	Request     smtmlp.Request `json:"request"`
}

// LeaseRequest is the POST /v1/work/lease body: a batch of cells to execute
// under the given measurement budget. TTLMillis caps how long the worker
// holds the lease awaiting collection (0 = the server default).
type LeaseRequest struct {
	LeaseID      string     `json:"lease_id"`
	Instructions uint64     `json:"instructions,omitempty"`
	Warmup       uint64     `json:"warmup,omitempty"`
	TTLMillis    int64      `json:"ttl_ms,omitempty"`
	Cells        []WorkCell `json:"cells"`
}

// LeaseStatus is the JSON shape of one lease in work responses.
type LeaseStatus struct {
	LeaseID string `json:"lease_id"`
	// RequestID is the correlation ID of the delivery that created the
	// lease (the coordinator's X-Request-Id, or a server-generated one),
	// echoed so GET /v1/work and lease logs join on the same value.
	RequestID string `json:"request_id,omitempty"`
	// Status is "running", "done", "canceled" (server shutdown) or
	// "expired" (TTL elapsed before collection).
	Status   string `json:"status"`
	Total    int    `json:"total"`
	Executed int    `json:"executed"`
	Failed   int    `json:"failed"`
}

// CompleteRequest is the POST /v1/work/complete body. WaitMillis long-polls:
// the worker holds the request up to that long (capped server-side) waiting
// for the lease to finish before answering.
type CompleteRequest struct {
	LeaseID    string `json:"lease_id"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

// WorkResult is one executed cell: the fingerprint it was leased under and
// either a result or a deterministic failure message.
type WorkResult struct {
	Fingerprint string                 `json:"fp"`
	Request     smtmlp.Request         `json:"request"`
	Result      *smtmlp.WorkloadResult `json:"result,omitempty"`
	Error       string                 `json:"error,omitempty"`
}

// CompleteResponse is the /v1/work/complete body. Results (in cell order)
// and Refs (the single-threaded reference profiles this lease's cells
// needed, sorted by key) are present only once the lease status is "done";
// a successful collection removes the lease from the worker. WaitMillis is
// the long-poll wait the server actually applied — the requested wait_ms
// clamped to the 30s cap — so a coordinator can see its value was trimmed
// rather than silently honored.
type CompleteResponse struct {
	Lease      LeaseStatus         `json:"lease"`
	WaitMillis int64               `json:"wait_ms"`
	Results    []WorkResult        `json:"results,omitempty"`
	Refs       []smtmlp.RefProfile `json:"refs,omitempty"`
}

// CompleteLine is one line of a streamed (Accept: application/x-ndjson)
// /v1/work/complete response; exactly one pointer field is set per line.
// The first line always carries the lease status plus the effective
// long-poll wait; when the lease is "done" it is followed by one result
// line per cell (in cell order) and one ref line per lease-scoped reference
// profile (in key order). The streamed form carries exactly the same data
// as the buffered CompleteResponse.
type CompleteLine struct {
	Lease      *LeaseStatus       `json:"lease,omitempty"`
	WaitMillis int64              `json:"wait_ms,omitempty"`
	Result     *WorkResult        `json:"result,omitempty"`
	Ref        *smtmlp.RefProfile `json:"ref,omitempty"`
}

// WorkListResponse is the GET /v1/work body: every lease the worker
// currently holds, in acceptance order, plus the lifetime counters — the
// operator's answer to "what is this worker doing right now".
type WorkListResponse struct {
	Leases  []LeaseStatus `json:"leases"`
	Metrics WorkMetrics   `json:"metrics"`
}

// WorkMetrics are the worker-side lease counters exposed on /metrics. The
// byte counters cover the /v1/work wire: BytesIn/BytesOut count the JSON
// bytes before compression (request) / after encoding (response), and the
// Wire variants count what actually crossed the socket — their ratio is the
// compression factor the fleet transfer is achieving on this worker.
type WorkMetrics struct {
	LeasesAccepted  int64 `json:"leases_accepted"`
	LeasesActive    int64 `json:"leases_active"`
	LeasesRenewed   int64 `json:"leases_renewed"`
	LeasesCollected int64 `json:"leases_collected"`
	LeasesExpired   int64 `json:"leases_expired"`
	CellsExecuted   int64 `json:"cells_executed"`
	CellsFailed     int64 `json:"cells_failed"`
	BytesIn         int64 `json:"bytes_in"`
	BytesInWire     int64 `json:"bytes_in_wire"`
	BytesOut        int64 `json:"bytes_out"`
	BytesOutWire    int64 `json:"bytes_out_wire"`
}

// workLease is the server-side state of one lease.
type workLease struct {
	id        string
	requestID string    // correlation ID of the delivery that created the lease
	accepted  time.Time // lease acceptance, the lifetime histogram's origin
	cells     []WorkCell
	tenant    *tenant.Tenant // lease holder; nil on untenanted servers

	mu       sync.Mutex
	status   string // "running", "done", "canceled", "expired"
	executed int
	failed   int
	results  []WorkResult
	refs     []smtmlp.RefProfile
	deadline time.Time // expiry deadline; pushed forward by renewals

	cancel context.CancelFunc
	expire *time.Timer
	done   chan struct{} // closed when the execution goroutine finishes
}

// renew pushes the lease's expiry deadline ttl into the future and re-arms
// the timer. It is safe against a concurrently-firing expiry: expireLease
// re-checks the deadline under the lease lock and re-arms instead of
// expiring when a renewal got there first.
func (l *workLease) renew(ttl time.Duration) {
	l.mu.Lock()
	l.deadline = time.Now().Add(ttl)
	l.mu.Unlock()
	l.expire.Reset(ttl)
}

// snapshot renders the lease under its lock.
func (l *workLease) snapshot() LeaseStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaseStatus{
		LeaseID:   l.id,
		RequestID: l.requestID,
		Status:    l.status,
		Total:     len(l.cells),
		Executed:  l.executed,
		Failed:    l.failed,
	}
}

// decodeWorkBody decodes a /v1/work request body, transparently inflating
// a Content-Encoding: gzip payload, and counts both the wire bytes and the
// decoded JSON bytes for /metrics.
func (s *Server) decodeWorkBody(w http.ResponseWriter, r *http.Request, v any) bool {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "reading request body: %v", err)
		}
		return false
	}
	s.workBytesInWire.Add(int64(len(raw)))
	body := raw
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		if !strings.EqualFold(enc, "gzip") {
			writeError(w, http.StatusUnsupportedMediaType, CodeInvalidRequest,
				"unsupported Content-Encoding %q (gzip or identity)", enc)
			return false
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "malformed gzip body: %v", err)
			return false
		}
		// Cap the inflated size too, so a tiny wire body cannot decompress
		// into an allocation bomb.
		body, err = io.ReadAll(io.LimitReader(zr, maxWorkBodyBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decompressing request body: %v", err)
			return false
		}
		if len(body) > maxWorkBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"decompressed request body exceeds %d bytes", maxWorkBodyBytes)
			return false
		}
	}
	s.workBytesIn.Add(int64(len(body)))
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// handleWorkLease accepts a lease, renews one the worker already holds (the
// idempotent re-POST doubles as the coordinator's TTL heartbeat), and
// starts executing fresh leases on the server's lifecycle context.
func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	var lr LeaseRequest
	if !s.decodeWorkBody(w, r, &lr) {
		return
	}
	if lr.LeaseID == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "lease has no lease_id")
		return
	}

	ttl := s.leaseTTL
	if lr.TTLMillis > 0 {
		if reqTTL := time.Duration(lr.TTLMillis) * time.Millisecond; reqTTL < ttl {
			ttl = reqTTL
		}
	}

	// Renewal / idempotent re-delivery: a lease the worker already holds is
	// acknowledged with its live snapshot and its TTL pushed forward —
	// checked before cell validation so the cells-free heartbeat form
	// {"lease_id": ...} works and costs nothing.
	s.mu.Lock()
	if existing, ok := s.leases[lr.LeaseID]; ok {
		existing.renew(ttl)
		s.mu.Unlock()
		s.leasesRenewed.Add(1)
		s.logger(r).Debug("lease renewed", obs.KeyLeaseID, lr.LeaseID, "ttl", ttl)
		writeJSON(w, existing.snapshot())
		return
	}
	s.mu.Unlock()

	// Fresh leases pass tenant admission (renewals above are free: the work
	// was already admitted; throttling the heartbeat would only expire it).
	t, _ := tenant.FromContext(r.Context())
	if !s.takeToken(w, t) {
		return
	}

	if len(lr.Cells) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "lease %q has no cells", lr.LeaseID)
		return
	}
	if len(lr.Cells) > s.maxBatch {
		writeError(w, http.StatusBadRequest, CodeBatchTooLarge,
			"lease of %d cells exceeds the server limit of %d", len(lr.Cells), s.maxBatch)
		return
	}

	// The per-lease engine: the lease's measurement budget (part of every
	// fingerprint), the service engine's parallelism, and — crucially — the
	// service engine's reference cache, so leases, /v1/run and /v1/batch all
	// warm each other.
	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(lr.Instructions),
		smtmlp.WithWarmup(lr.Warmup),
		smtmlp.WithParallelism(s.eng.Parallelism()),
		smtmlp.WithCache(s.eng.Cache()),
		smtmlp.WithSlotGate(s.gate),
	)
	for _, cell := range lr.Cells {
		if !s.checkWorkload(w, cell.Request.Workload.Benchmarks) {
			return
		}
		if fp := smtmlp.Fingerprint(cell.Request, eng.Instructions(), eng.Warmup()); fp != cell.Fingerprint {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"cell fingerprint %q does not match its request (worker computes %q); coordinator/worker mismatch?",
				cell.Fingerprint, fp)
			return
		}
	}

	s.mu.Lock()
	if existing, ok := s.leases[lr.LeaseID]; ok {
		// A concurrent re-POST of the same lease raced us past the renewal
		// check above; acknowledge and renew it without restarting.
		existing.renew(ttl)
		s.mu.Unlock()
		s.leasesRenewed.Add(1)
		writeJSON(w, existing.snapshot())
		return
	}
	// Per-tenant quota first: a tenant at its own lease limit is told
	// quota_exceeded (its problem) even when the worker as a whole still has
	// room; worker_busy (everyone's problem) is reserved for the global bound.
	// Both checks share the registration critical section so racing leases
	// cannot sneak under either limit.
	if limit := t.Limits.MaxLeases; s.tenants != nil && limit > 0 && s.activeLeasesFor(t) >= limit {
		s.mu.Unlock()
		t.CountQuotaDenied()
		writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q already holds %d running leases (limit %d); collect one before leasing more",
			t.Name, limit, limit)
		return
	}
	active := int64(0)
	for _, l := range s.leases {
		if l.snapshotStatus() == "running" {
			active++
		}
	}
	if active >= int64(s.maxLeases) {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, CodeWorkerBusy,
			"worker already holds %d running leases (limit %d); try another worker or retry later",
			active, s.maxLeases)
		return
	}
	baseCtx := s.baseCtx
	if s.tenants != nil {
		// Lease cells are the holder's bulk work at the slot gate.
		baseCtx = tenant.NewContext(baseCtx, t, tenant.Bulk)
	}
	ctx, cancel := context.WithCancel(baseCtx)
	lease := &workLease{
		id:        lr.LeaseID,
		requestID: obs.RequestID(r.Context()),
		accepted:  time.Now(),
		cells:     lr.Cells,
		status:    "running",
		deadline:  time.Now().Add(ttl),
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	if s.tenants != nil {
		lease.tenant = t
		t.CountAdmitted()
	}
	lease.expire = time.AfterFunc(ttl, func() { s.expireLease(lease) })
	s.leases[lr.LeaseID] = lease
	s.leaseOrder = append(s.leaseOrder, lr.LeaseID)
	s.mu.Unlock()
	s.leasesAccepted.Add(1)
	s.logger(r).Info("lease accepted",
		obs.KeyLeaseID, lr.LeaseID, "cells", len(lr.Cells), "ttl", ttl)

	go s.runLease(ctx, lease, eng)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeLine(w, lease.snapshot())
}

// snapshotStatus reads the status under the lease lock.
func (l *workLease) snapshotStatus() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.status
}

// expireLease is the TTL path: cancel execution, drop the lease state and
// count it. A lease that finished collection just before the timer fired is
// already gone from the map and is not double-counted; a lease whose
// deadline a renewal pushed forward after this timer was armed is re-armed
// for the remainder instead of expired.
func (s *Server) expireLease(lease *workLease) {
	s.mu.Lock()
	if _, ok := s.leases[lease.id]; !ok {
		s.mu.Unlock()
		return
	}
	lease.mu.Lock()
	remaining := time.Until(lease.deadline)
	lease.mu.Unlock()
	if remaining > 0 {
		s.mu.Unlock()
		lease.expire.Reset(remaining)
		return
	}
	// Count the expiry before the lease leaves the map, so a listing that
	// no longer shows the lease always counts it as expired.
	s.leasesExpired.Add(1)
	delete(s.leases, lease.id)
	s.mu.Unlock()
	lease.mu.Lock()
	if lease.status == "running" || lease.status == "done" {
		lease.status = "expired"
	}
	lease.mu.Unlock()
	lease.cancel()
	s.leaseLifetime.Observe(time.Since(lease.accepted))
	s.log.Warn("lease expired uncollected",
		obs.KeyLeaseID, lease.id, obs.KeyRequestID, lease.requestID,
		"lifetime", time.Since(lease.accepted))
}

// runLease executes the lease's cells through the per-lease engine and
// stores the results (in cell order) plus the reference profiles this lease
// needed, filtered from the shared cache by key so unrelated traffic never
// leaks into a coordinator's store.
func (s *Server) runLease(ctx context.Context, lease *workLease, eng *smtmlp.Engine) {
	defer close(lease.done)
	defer lease.cancel()
	reqs := make([]smtmlp.Request, len(lease.cells))
	for i, c := range lease.cells {
		reqs[i] = c.Request
	}
	results := make([]WorkResult, len(lease.cells))
	canceled := false
	for br := range eng.RunBatch(ctx, reqs) {
		wr := WorkResult{Fingerprint: lease.cells[br.Index].Fingerprint, Request: br.Request}
		switch {
		case br.Err != nil && errors.Is(br.Err, smtmlp.ErrCanceled):
			canceled = true
		case br.Err != nil:
			// A deterministic per-cell failure: report it as data, not as a
			// lease failure — the coordinator skips it exactly like local
			// execution does.
			wr.Error = br.Err.Error()
			lease.mu.Lock()
			lease.failed++
			lease.mu.Unlock()
			s.cellsFailed.Add(1)
		default:
			res := br.Result
			wr.Result = &res
			lease.mu.Lock()
			lease.executed++
			lease.mu.Unlock()
			s.cellsExecuted.Add(1)
		}
		results[br.Index] = wr
	}

	lease.mu.Lock()
	defer lease.mu.Unlock()
	if canceled {
		if lease.status == "running" {
			lease.status = "canceled"
		}
		return
	}
	lease.results = results
	lease.refs = leaseRefs(eng, lease.cells)
	if lease.status == "running" {
		lease.status = "done"
	}
}

// leaseRefs exports the single-threaded reference profiles the lease's cells
// depend on — and only those. The shared cache may hold profiles from other
// traffic (other budgets, other configs); filtering by the exact reference
// keys keeps a coordinator's merged refs snapshot byte-identical to what
// single-node execution of the same spec would have persisted.
func leaseRefs(eng *smtmlp.Engine, cells []WorkCell) []smtmlp.RefProfile {
	want := make(map[string]bool)
	for _, c := range cells {
		for _, b := range c.Request.Workload.Benchmarks {
			want[sim.RefKey(c.Request.Config, b, eng.Instructions(), eng.Warmup())] = true
		}
	}
	var out []smtmlp.RefProfile
	for _, rec := range eng.Cache().Export() { // Export is sorted by key
		if want[rec.Key] {
			out = append(out, rec)
		}
	}
	return out
}

// handleWorkComplete long-polls one lease and, once it is done, hands the
// results (and lease-scoped reference profiles) to the coordinator and
// forgets the lease. The response honors Accept: application/x-ndjson
// (streamed, one line per result) and Accept-Encoding: gzip; absent those
// headers it is the buffered JSON body old coordinators expect.
func (s *Server) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	var cr CompleteRequest
	if !s.decodeWorkBody(w, r, &cr) {
		return
	}
	if cr.LeaseID == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "complete has no lease_id")
		return
	}
	if cr.WaitMillis < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"wait_ms %d is negative; use 0 (answer immediately) up to the %dms cap",
			cr.WaitMillis, maxCompleteWait.Milliseconds())
		return
	}
	s.mu.Lock()
	lease, ok := s.leases[cr.LeaseID]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownLease,
			"no lease %q on this worker (completed, expired, or never delivered here)", cr.LeaseID)
		return
	}

	// Clamp silently-unbounded waits to the cap; the effective value is
	// echoed in the response so the trim is visible to the coordinator.
	wait := time.Duration(cr.WaitMillis) * time.Millisecond
	if wait > maxCompleteWait {
		wait = maxCompleteWait
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-lease.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
	}

	lease.mu.Lock()
	status := LeaseStatus{
		LeaseID:   lease.id,
		RequestID: lease.requestID,
		Status:    lease.status,
		Total:     len(lease.cells),
		Executed:  lease.executed,
		Failed:    lease.failed,
	}
	resp := CompleteResponse{Lease: status, WaitMillis: wait.Milliseconds()}
	if status.Status == "done" {
		resp.Results = lease.results
		resp.Refs = lease.refs
	}
	lease.mu.Unlock()

	if status.Status == "done" {
		// Collected: the lease's job is over. Forget it so the slot frees up;
		// if this response is lost on the wire, the coordinator re-leases the
		// same cells and the store's dedupe-on-append absorbs the repeat.
		s.mu.Lock()
		collected := false
		if _, ok := s.leases[lease.id]; ok {
			delete(s.leases, lease.id)
			s.leasesCollected.Add(1)
			collected = true
		}
		s.mu.Unlock()
		lease.expire.Stop()
		if collected {
			lifetime := time.Since(lease.accepted)
			s.leaseLifetime.Observe(lifetime)
			s.logger(r).Info("lease collected",
				obs.KeyLeaseID, lease.id, "executed", status.Executed,
				"failed", status.Failed, "lifetime", lifetime)
		}
	}
	s.writeCompleteResponse(w, r, resp)
}

// countWriter counts the bytes written through it into an atomic counter.
type countWriter struct {
	n *atomic.Int64
	w io.Writer
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// writeCompleteResponse encodes the /v1/work/complete response per the
// request's negotiation headers. With Accept: application/x-ndjson the body
// streams one CompleteLine at a time — encoding cost is O(1) in the lease
// size instead of one giant buffered array — and with Accept-Encoding: gzip
// it is compressed on the wire. Both byte counters (pre- and
// post-compression) feed /metrics.
func (s *Server) writeCompleteResponse(w http.ResponseWriter, r *http.Request, resp CompleteResponse) {
	ndjson := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	var out io.Writer = countWriter{&s.workBytesOutWire, w}
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(out)
		defer zw.Close()
		out = zw
	}
	enc := json.NewEncoder(countWriter{&s.workBytesOut, out})
	if !ndjson {
		enc.Encode(resp)
		return
	}
	enc.Encode(CompleteLine{Lease: &resp.Lease, WaitMillis: resp.WaitMillis})
	for i := range resp.Results {
		enc.Encode(CompleteLine{Result: &resp.Results[i]})
	}
	for i := range resp.Refs {
		enc.Encode(CompleteLine{Ref: &resp.Refs[i]})
	}
}

// handleWorkList reports every lease the worker holds plus the lifetime
// counters.
func (s *Server) handleWorkList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	var held []*workLease
	live := s.leaseOrder[:0]
	for _, id := range s.leaseOrder {
		if l, ok := s.leases[id]; ok {
			held = append(held, l)
			live = append(live, id)
		}
	}
	s.leaseOrder = live // compact away collected/expired leases
	s.mu.Unlock()
	resp := WorkListResponse{Leases: []LeaseStatus{}, Metrics: s.workMetrics()}
	for _, l := range held {
		resp.Leases = append(resp.Leases, l.snapshot())
	}
	writeJSON(w, resp)
}

// workMetrics gathers the lease counters.
func (s *Server) workMetrics() WorkMetrics {
	s.mu.Lock()
	active := int64(len(s.leases))
	s.mu.Unlock()
	return WorkMetrics{
		LeasesAccepted:  s.leasesAccepted.Load(),
		LeasesActive:    active,
		LeasesRenewed:   s.leasesRenewed.Load(),
		LeasesCollected: s.leasesCollected.Load(),
		LeasesExpired:   s.leasesExpired.Load(),
		CellsExecuted:   s.cellsExecuted.Load(),
		CellsFailed:     s.cellsFailed.Load(),
		BytesIn:         s.workBytesIn.Load(),
		BytesInWire:     s.workBytesInWire.Load(),
		BytesOut:        s.workBytesOut.Load(),
		BytesOutWire:    s.workBytesOutWire.Load(),
	}
}

// DrainWork blocks until every lease execution goroutine has finished. Call
// it during shutdown after canceling the base context: running leases
// observe the cancellation and exit promptly.
func (s *Server) DrainWork() {
	s.mu.Lock()
	held := make([]*workLease, 0, len(s.leases))
	for _, l := range s.leases {
		held = append(held, l)
	}
	s.mu.Unlock()
	for _, l := range held {
		<-l.done
	}
}
