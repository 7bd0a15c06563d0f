package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
	"smtmlp/internal/tenant"
)

const serveInstructions, serveWarmup = 10_000, 2_500

// Interactive /v1/run requests draw from this pool; the bulk tenant streams
// the batch below, over and over.
var (
	serveRunMixes    = [][]string{{"mcf", "galgel"}, {"vortex", "parser"}, {"swim", "twolf"}, {"apsi", "art"}, {"crafty", "twolf"}, {"applu", "galgel"}}
	serveRunPolicies = []smtmlp.Policy{smtmlp.ICount, smtmlp.MLPFlush}

	serveBatchMixes    = [][]string{{"mcf", "swim"}, {"gcc", "gap"}, {"galgel", "fma3d"}, {"fma3d", "twolf"}, {"facerec", "crafty"}, {"lucas", "fma3d"}}
	serveBatchPolicies = []string{"icount", "flush", "mlpflush"}
)

const (
	// serveRate is the interactive arrival rate: about half the interactive
	// capacity with the bulk stream running, when a /v1/run takes about
	// 50 ms on the client's one connection.
	serveRate = 10.0 // requests per second
	// serveLimit is the /v1/run latency limit for goodput.
	serveLimit = 250 * time.Millisecond
)

// serveTenants is the two-tenant service: no rate limits or quotas, so
// nothing is refused; the interactive tenant's weight and the scheduler's
// interactive boost decide who gets the next engine slot.
const serveTenants = `{"interactive_boost": 8, "tenants": [
  {"key": "k-interactive", "name": "interactive", "weight": 4},
  {"key": "k-bulk", "name": "bulk", "weight": 1}]}`

// service is one running in-process smtserved on loopback: serve-mixed's
// service or one of fleet-loopback's workers.
type service struct {
	eng  *smtmlp.Engine
	gate *spanGate // serve-mixed's traced runs only
	url  string
	hs   *http.Server
	done chan error
}

// startService serves handler on a loopback port and returns once the
// service answers /healthz.
func startService(eng *smtmlp.Engine, handler http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{eng: eng, url: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	resp, err := (&http.Client{Transport: transport}).Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client returns an HTTP client limited to one connection, so the load the
// benchmark offers never holds more connections than it has clients.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// serveTruth is the ground truth set-up computes with a direct engine.
type serveTruth struct {
	runBody   [][]byte // /v1/run body per pool entry
	runResult []smtmlp.WorkloadResult
	runInstr  []uint64
	directMs  []float64 // direct Engine.RunRequest time per pool entry
	batchBody []byte    // the whole /v1/batch NDJSON stream
	lineInstr []uint64
	batchByFP map[string]smtmlp.WorkloadResult
	stp, antt float64
}

func serveRequests() (runs, batch []smtmlp.Request) {
	for _, names := range serveRunMixes {
		for _, p := range serveRunPolicies {
			runs = append(runs, smtmlp.Request{Config: smtmlp.DefaultConfig(len(names)), Workload: smtmlp.Mix(names...), Policy: p})
		}
	}
	// The server expands a batch policy-major and tags cells workload/policy.
	for _, name := range serveBatchPolicies {
		p, _ := smtmlp.ParsePolicy(name)
		for _, names := range serveBatchMixes {
			w := smtmlp.Mix(names...)
			batch = append(batch, smtmlp.Request{Tag: fmt.Sprintf("%s/%s", w.Name(), p),
				Config: smtmlp.DefaultConfig(len(names)), Workload: w, Policy: p})
		}
	}
	return runs, batch
}

// requestSeq numbers the requests the benchmark sends (X-Request-Id).
var requestSeq atomic.Int64

// parentIDs links a request's X-Request-Id to its client span, so the gate
// can hang the simulations it sees under the request that caused them.
type parentIDs struct {
	mu sync.Mutex
	m  map[string]parentRef
}

type parentRef struct {
	span      int64
	submitted time.Time
}

func (p *parentIDs) set(id string, ref parentRef) {
	p.mu.Lock()
	p.m[id] = ref
	p.mu.Unlock()
}

func (p *parentIDs) of(ctx context.Context) (int64, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ref := p.m[obs.RequestID(ctx)]
	return ref.span, ref.submitted
}

// runServe is serve-mixed: an in-process two-tenant service on loopback, an
// open-loop interactive /v1/run client and one bulk /v1/batch stream.
func runServe(ctx context.Context, b *harness) error {
	runs, batch := serveRequests()
	runner, err := b.refPhase(ctx, serveInstructions, serveWarmup, refKeys(append(runs, batch...)))
	if err != nil {
		return err
	}
	refs := runner.Refs().Export()
	parents := &parentIDs{m: make(map[string]parentRef)}
	cache := smtmlp.NewCache(0)
	cache.Seed(refs)
	truth, err := b.serveGroundTruth(ctx, cache, runs, batch)
	if err != nil {
		return err
	}

	// Set-up loads the references from a store, builds the tenant table, the
	// scheduler and the engine, seeds the engine with the references and
	// starts the service.
	refDir, err := b.refStore(refs)
	if err != nil {
		return err
	}
	var seeded int
	newService := func() (*service, func() error, error) {
		st, err := store.Open(refDir)
		if err != nil {
			return nil, nil, err
		}
		tbl, err := tenant.Parse([]byte(serveTenants))
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		sched := tenant.NewScheduler(b.nproc, tbl.Boost())
		// Untraced runs serve through the scheduler alone; traced runs watch
		// it through a span gate in both halves.
		var gate smtmlp.SlotGate = sched
		var sg *spanGate
		if b.traced {
			sg = &spanGate{inner: sched, tr: b.tr, waitLayer: "tenant", parentOf: parents.of}
			gate = sg
		}
		eng := smtmlp.NewEngine(smtmlp.WithInstructions(serveInstructions), smtmlp.WithWarmup(serveWarmup),
			smtmlp.WithParallelism(b.nproc), smtmlp.WithSlotGate(gate))
		seeded = eng.Cache().Seed(st.Refs())
		svc, err := startService(eng, server.New(eng, server.WithTenants(tbl, gate)))
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		svc.gate = sg
		return svc, func() error {
			err := svc.stop()
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			return err
		}, nil
	}
	svc, teardown, err := setUp(b, newService)
	if err != nil {
		return err
	}
	defer teardown()
	b.check(seeded == len(refs), "set-up seeded %d of %d references from the store", seeded, len(refs))
	b.e2e["sim_stp"], b.e2e["sim_antt"] = truth.stp, truth.antt
	b.report("sim_stp %.6f ratio, sim_antt %.6f ratio (simulated, over %d distinct cells)", truth.stp, truth.antt, len(runs)+len(batch))
	b.report("interactive capacity of a direct engine: %.1f req/s alone; offered %.1f req/s open-loop, latency limit %v",
		1000/mean(truth.directMs), serveRate, serveLimit)

	interactive, bulk := client(), client()
	untracedFor, tracedFor := b.split()
	u, err := b.serveSection(ctx, svc, interactive, bulk, truth, parents, untracedFor)
	if err != nil {
		return err
	}
	if err := b.refPhaseEnd(ctx); err != nil {
		return err
	}
	if err := setUpEnd(b, newService); err != nil {
		return err
	}
	b.e2e["cells_per_s"] = u.batchCellsPerS
	b.e2e["smt_minstr_per_s"] = u.minstrPerS
	b.e2e["latency_p50_ms"] = median(u.latMs)
	tv, tp := tail(u.latMs)
	b.e2e["latency_tail_ms"] = tv
	b.report("run_p50_ms %.3f ms, run_tail_ms %.3f ms at p%.1f (%d requests, timed from when each was due)",
		median(u.latMs), tv, tp, len(u.latMs))
	b.report("run_goodput_rps %.3f req/s (%d of %d within %v; failed or refused count as misses)",
		u.goodputRPS, u.good, len(u.latMs), serveLimit)
	b.report("batch_cells_per_s %.4f cells/s; smt_minstr_per_s %.4f Minstr/s over both streams", u.batchCellsPerS, u.minstrPerS)
	b.report("generator lateness: p50 %.3f ms, max %.3f ms", median(u.lateMs), maxOf(u.lateMs))
	if !b.traced {
		return nil
	}

	b.tr.on.Store(true)
	t, err := b.serveSection(ctx, svc, interactive, bulk, truth, parents, tracedFor)
	if err != nil {
		return err
	}
	want := make(map[string]cellResult)
	for i := range runs {
		runs[i].Tag = fmt.Sprintf("run-%d", i)
		want[runs[i].Tag] = resultOf(runs[i].Tag, truth.runResult[i])
	}
	if err := b.layerDrivers(ctx, runs, want, runner); err != nil {
		return err
	}
	// The store and campaign layers see the bulk batch as the campaign it
	// expands to, with the ground truth's results.
	spec := campaign.Spec{Instructions: serveInstructions, Warmup: serveWarmup,
		Policies: serveBatchPolicies, Workloads: campaign.WorkloadSpec{Mixes: serveBatchMixes}}
	if err := b.storeDrivers(spec, truth.batchByFP, nil); err != nil {
		return err
	}
	b.tr.on.Store(false)
	b.layer["server.run_overhead_ms"] = median(u.overheadMs)
	b.layer["server.requests"] = t.requests
	b.layer["server.rejected"] = t.rejected
	b.layer["tenant.queue_wait_ms.interactive"] = t.queueWaitMs["interactive"]
	b.layer["tenant.queue_wait_ms.bulk"] = t.queueWaitMs["bulk"]
	b.layer["tenant.slots_granted"] = t.slotsGranted
	b.layer["smtmlp.batch_wait_ms"] = t.batchWaitMs
	b.layer["smtmlp.queue_depth_peak"] = t.queueDepthPeak
	b.layer["loadgen.late_p50_ms"] = median(u.lateMs)
	b.layer["loadgen.late_max_ms"] = maxOf(u.lateMs)
	b.layer["sim.smt_s"] = median(u.streamS)
	hits, misses, _ := svc.eng.Cache().Stats()
	b.layer["sim.refcache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	b.layer["sim.refcache_misses"] = float64(misses)
	b.finishTrace(u.batchCellsPerS, t.batchCellsPerS, median(u.latMs), median(t.latMs))
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// serveGroundTruth computes every /v1/run body and the /v1/batch stream
// with a direct engine whose reference cache holds the service's
// references.
func (b *harness) serveGroundTruth(ctx context.Context, cache *smtmlp.Cache, runs, batch []smtmlp.Request) (serveTruth, error) {
	var t serveTruth
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(serveInstructions), smtmlp.WithWarmup(serveWarmup),
		smtmlp.WithParallelism(b.nproc), smtmlp.WithCache(cache))
	var stps, antts []float64
	for _, r := range runs {
		s0 := time.Now()
		res, err := eng.RunRequest(ctx, r)
		if err != nil {
			return t, err
		}
		t.directMs = append(t.directMs, ms(time.Since(s0)))
		body, err := json.Marshal(res)
		if err != nil {
			return t, err
		}
		t.runBody = append(t.runBody, append(body, '\n'))
		t.runResult = append(t.runResult, res)
		t.runInstr = append(t.runInstr, resultOf("", res).instructions())
		stps, antts = append(stps, res.STP), append(antts, res.ANTT)
	}
	lines := make([][]byte, len(batch))
	t.lineInstr = make([]uint64, len(batch))
	t.batchByFP = make(map[string]smtmlp.WorkloadResult)
	for br := range eng.RunBatch(ctx, batch) {
		if br.Err != nil {
			return t, br.Err
		}
		line, err := json.Marshal(br)
		if err != nil {
			return t, err
		}
		lines[br.Index] = append(line, '\n')
		t.lineInstr[br.Index] = resultOf("", br.Result).instructions()
		t.batchByFP[smtmlp.Fingerprint(br.Request, serveInstructions, serveWarmup)] = br.Result
		stps, antts = append(stps, br.Result.STP), append(antts, br.Result.ANTT)
	}
	t.batchBody = bytes.Join(lines, nil)
	t.stp, t.antt = harmonicMean(stps), mean(antts)
	return t, nil
}

// serveStats is one measured section of serve-mixed.
type serveStats struct {
	latMs, lateMs, overheadMs, streamS []float64
	good, lines                        int
	instr                              uint64
	elapsed                            float64 // seconds under load
	goodputRPS, batchCellsPerS         float64
	minstrPerS                         float64

	requests, rejected, slotsGranted float64
	queueWaitMs                      map[string]float64
	batchWaitMs, queueDepthPeak      float64
}

// serveSection offers the open-loop interactive load and the bulk stream
// for d and checks every response against the ground truth.
func (b *harness) serveSection(ctx context.Context, svc *service, interactive, bulk *http.Client, truth serveTruth,
	parents *parentIDs, d time.Duration) (serveStats, error) {
	var st serveStats
	before, err := scrape(ctx, interactive, svc.url)
	if err != nil {
		return st, err
	}
	if err := b.offerLoad(ctx, svc, interactive, bulk, truth, parents, d, &st); err != nil {
		return st, err
	}
	st.batchCellsPerS = float64(st.lines) / st.elapsed
	st.minstrPerS = float64(st.instr) / st.elapsed / 1e6
	st.goodputRPS = float64(st.good) / st.elapsed
	if svc.gate != nil {
		st.batchWaitMs = svc.gate.meanWaitMs()
	}

	after, err := scrape(ctx, interactive, svc.url)
	if err != nil {
		return st, err
	}
	st.requests = float64(after.Server.RequestsTotal - before.Server.RequestsTotal)
	st.rejected = float64(after.Server.Unauthorized - before.Server.Unauthorized)
	st.queueWaitMs = make(map[string]float64)
	for i, ta := range after.Tenants {
		tb := before.Tenants[i]
		st.rejected += float64(ta.RateLimited - tb.RateLimited + ta.QuotaDenied - tb.QuotaDenied)
		grants := ta.SlotsGranted - tb.SlotsGranted
		st.slotsGranted += float64(grants)
		if grants > 0 {
			st.queueWaitMs[ta.Name] = float64(ta.QueueWaitMillis-tb.QueueWaitMillis) / float64(grants)
		}
	}
	b.check(st.rejected == 0, "the service refused %v requests", st.rejected)
	return st, nil
}

// arrival is one interactive request: when it is due and which pool entry
// it asks for.
type arrival struct {
	at    time.Duration
	entry int
}

// arrivals draws serveRate*d arrivals, one in each 1/serveRate slot of d at
// a seeded random time within the middle half of its slot, asking for every
// pool entry equally often, in seeded order, so every seed offers the same
// work. Arrivals are never closer than half a slot, about one /v1/run's
// service time: with bursty (Poisson) arrivals the tail latency was set by
// how closely the seed happened to bunch requests on the client's one
// connection, not by the service.
func (b *harness) arrivals(d time.Duration, entries int) []arrival {
	slot := time.Duration(float64(time.Second) / serveRate)
	n := int(serveRate * d.Seconds())
	out := make([]arrival, n)
	for i := range out {
		at := time.Duration(i)*slot + slot/4 + time.Duration(b.rng.Float64()*float64(slot/2))
		out[i] = arrival{at: at, entry: i % entries}
	}
	b.rng.Shuffle(n, func(i, j int) { out[i].entry, out[j].entry = out[j].entry, out[i].entry })
	return out
}

// offerLoad runs the interactive client and the bulk stream for d,
// recording into st.
func (b *harness) offerLoad(ctx context.Context, svc *service, interactive, bulk *http.Client, truth serveTruth,
	parents *parentIDs, d time.Duration, st *serveStats) error {
	arrivals := b.arrivals(d, len(truth.runBody))
	start := time.Now()
	bctx, bcancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var lines int
	var lineInstr uint64
	var streamS []float64
	var bulkErr error
	var bulkEnd time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		lines, lineInstr, streamS, bulkErr = b.bulkStreams(bctx, bulk, svc.url, truth, parents)
		bulkEnd = time.Now()
	}()
	var depthPeak float64
	stopSampler := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				depthPeak = max(depthPeak, float64(svc.eng.Metrics().QueueDepth))
			}
		}
	}()
	stop := func() {
		bcancel()
		close(stopSampler)
		wg.Wait()
	}

	for _, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		sent := time.Now()
		st.lateMs = append(st.lateMs, ms(sent.Sub(due)))
		id := fmt.Sprintf("run-%d", requestSeq.Add(1))
		span, end := b.tr.open(0, "server", "POST /v1/run", id)
		if b.traced {
			parents.set(id, parentRef{span: span})
		}
		body, status, err := post(ctx, interactive, svc.url+"/v1/run", "k-interactive", id, runBody(a.entry))
		end()
		done := time.Now()
		if err != nil {
			stop()
			return err
		}
		lat := done.Sub(due)
		st.latMs = append(st.latMs, ms(lat))
		ok := b.check(status == http.StatusOK && bytes.Equal(body, truth.runBody[a.entry]),
			"/v1/run %s: status %d, body differs from the direct Engine.RunRequest", id, status)
		if ok && lat <= serveLimit {
			st.good++
		}
		if ok {
			st.instr += truth.runInstr[a.entry]
		}
		st.overheadMs = append(st.overheadMs, ms(done.Sub(sent))-truth.directMs[a.entry])
	}
	// The bulk stream runs at least as long as the interactive load.
	time.Sleep(time.Until(start.Add(d)))
	stop()
	if bulkErr != nil {
		return bulkErr
	}
	st.lines += lines
	st.instr += lineInstr
	st.streamS = append(st.streamS, streamS...)
	st.elapsed += bulkEnd.Sub(start).Seconds()
	st.queueDepthPeak = max(st.queueDepthPeak, depthPeak)
	return nil
}

func runBody(entry int) []byte {
	r := entry / len(serveRunPolicies)
	p := serveRunPolicies[entry%len(serveRunPolicies)]
	body, _ := json.Marshal(server.RunRequest{Benchmarks: serveRunMixes[r], Policy: p.String()})
	return body
}

// bulkStreams posts the batch again and again until ctx ends, checking each
// complete NDJSON line against the ground truth; it returns the complete
// lines received, their committed instructions and each whole stream's
// duration.
func (b *harness) bulkStreams(ctx context.Context, c *http.Client, url string, truth serveTruth,
	parents *parentIDs) (lines int, instr uint64, streamS []float64, err error) {
	body, _ := json.Marshal(server.BatchRequest{Workloads: serveBatchMixes, Policies: serveBatchPolicies})
	want := bytes.SplitAfter(truth.batchBody, []byte("\n"))
	for ctx.Err() == nil {
		id := fmt.Sprintf("batch-%d", requestSeq.Add(1))
		span, end := b.tr.open(0, "server", "POST /v1/batch", id)
		s0 := time.Now()
		if b.traced {
			parents.set(id, parentRef{span: span, submitted: s0})
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
		if rerr != nil {
			return lines, instr, streamS, rerr
		}
		req.Header.Set("Authorization", "Bearer k-bulk")
		req.Header.Set(obs.RequestIDHeader, id)
		resp, rerr := c.Do(req)
		if rerr != nil {
			end()
			if ctx.Err() != nil {
				break
			}
			return lines, instr, streamS, rerr
		}
		rd := bufio.NewReader(resp.Body)
		i := 0
		for ; ; i++ {
			line, rerr := rd.ReadBytes('\n')
			if rerr != nil {
				break // a line cut short by the deadline is not counted
			}
			b.check(i < len(want) && bytes.Equal(line, want[i]), "/v1/batch %s line %d differs from the direct RunBatch", id, i)
			if i < len(truth.lineInstr) {
				instr += truth.lineInstr[i]
			}
			lines++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		end()
		if ctx.Err() == nil {
			b.check(resp.StatusCode == http.StatusOK && i == len(truth.lineInstr),
				"/v1/batch %s: status %d, %d of %d lines", id, resp.StatusCode, i, len(truth.lineInstr))
			streamS = append(streamS, time.Since(s0).Seconds())
		}
	}
	return lines, instr, streamS, nil
}

// post sends one authenticated JSON request and returns the response body.
func post(ctx context.Context, c *http.Client, url, key, id string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// scrape reads the service's JSON /metrics.
func scrape(ctx context.Context, c *http.Client, url string) (server.MetricsResponse, error) {
	var m server.MetricsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
