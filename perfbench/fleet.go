package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/server"
)

// fleetWorkers is the number of in-process workers; each simulates one cell
// at a time, so together they use as many cores as campaign-cold.
const fleetWorkers = 2

// startWorkers starts fresh workers, so each fleet run starts with cold
// reference caches like campaign-cold. In traced runs every request a
// worker serves is recorded as a server span under the fleet run that parent
// holds.
func (b *harness) startWorkers(parent *atomic.Int64) ([]*service, error) {
	var ws []*service
	for i := 0; i < fleetWorkers; i++ {
		eng := smtmlp.NewEngine(smtmlp.WithParallelism(1))
		var handler http.Handler = server.New(eng)
		if b.traced {
			srv := handler
			handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				s0 := time.Now()
				srv.ServeHTTP(rw, r)
				b.tr.record(parent.Load(), "server", r.Method+" "+r.URL.Path, r.Header.Get("X-Request-Id"), false, s0, time.Now())
			})
		}
		w, err := startService(eng, handler)
		if err != nil {
			stopWorkers(ws)
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func stopWorkers(ws []*service) error {
	var first error
	for _, w := range ws {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runFleet is fleet-loopback: campaign-cold's spec through fleet.Run against
// two in-process workers over the /v1/work protocol, checked byte for byte
// against a local run of the same spec.
func runFleet(ctx context.Context, b *harness) error {
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
	var parent atomic.Int64
	b.e2e["sim_stp"], b.e2e["sim_antt"] = truth.stp, truth.antt
	b.report("sim_stp %.6f ratio, sim_antt %.6f ratio (simulated, over %d cells)", truth.stp, truth.antt, truth.cells)

	untracedFor, tracedFor := b.split()
	u, err := b.fleetIterations(ctx, spec, truth, &parent, untracedFor)
	if err != nil {
		return err
	}
	if err := b.refPhaseEnd(ctx); err != nil {
		return err
	}
	b.reportSetup(u.setupS)
	b.report("fleet.Run over %d workers (parallelism 1, pipeline depth 1), %d cells:", fleetWorkers, truth.cells)
	b.passMetrics(u.passStats, truth.cells, "fleet run")
	if !b.traced {
		return nil
	}

	b.tr.on.Store(true)
	t, err := b.fleetIterations(ctx, spec, truth, &parent, tracedFor)
	if err != nil {
		return err
	}
	local, err := b.campaignIterations(ctx, spec, truth, tracedFor/2)
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
	b.layer["fleet.overhead_s"] = median(u.secs) - median(local.secs)
	b.layer["fleet.leases"] = t.leases
	b.layer["fleet.requeued"] = t.requeued
	b.layer["fleet.wire_bytes_per_cell"] = t.wireBytesPerCell
	b.layer["fleet.worker_cells_per_s"] = t.workerCellsPerS
	b.layer["campaign.run_s"] = median(local.secs)
	b.layer["campaign.resume_s"] = median(local.resumeS)
	b.layer["sim.smt_s"] = median(u.secs)
	b.layer["sim.refcache_hit_ratio"] = t.hitRatio
	b.layer["sim.refcache_misses"] = t.misses
	b.report("fleet.overhead_s %.4f s: fleet run median %.4f s against a local campaign.Run median %.4f s",
		b.layer["fleet.overhead_s"], median(u.secs), median(local.secs))
	b.finishTrace(median(u.cellRates), median(t.cellRates), median(u.latMs), median(t.latMs))
	return nil
}

// fleetStats adds set-up and the fleet summary's counters to passStats.
type fleetStats struct {
	passStats
	setupS                                              []float64
	leases, requeued, wireBytesPerCell, workerCellsPerS float64
	hitRatio, misses                                    float64
}

// fleetIterations runs the spec through fresh workers into fresh stores
// until d has elapsed. Each run's set-up, starting its workers and
// openCampaign, is timed on its own; stopping them is not timed.
func (b *harness) fleetIterations(ctx context.Context, spec campaign.Spec, truth campaignTruth, parent *atomic.Int64, d time.Duration) (fleetStats, error) {
	var st fleetStats
	var leases, requeued, wire, workerRate, hits, misses []float64
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	start := time.Now()
	for len(st.secs) == 0 || time.Since(start) < d {
		setup := time.Now()
		ws, err := b.startWorkers(parent)
		if err != nil {
			return st, err
		}
		urls := make([]string, len(ws))
		for i, w := range ws {
			urls[i] = w.url
		}
		spec, dir, s, err := b.openCampaign(specJSON, "fleet")
		if err != nil {
			stopWorkers(ws)
			return st, err
		}
		st.setupS = append(st.setupS, time.Since(setup).Seconds())
		root, end := b.tr.open(0, "fleet", "fleet.Run", "")
		parent.Store(root)
		transport := &http.Transport{MaxConnsPerHost: 1}
		s0 := time.Now()
		sum, err := fleet.Run(ctx, s, spec, fleet.Options{
			Workers:       urls,
			PipelineDepth: 1,
			Client:        &http.Client{Transport: transport},
		})
		wall := time.Since(s0)
		end()
		transport.CloseIdleConnections()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if serr := stopWorkers(ws); err == nil {
			err = serr
		}
		if err != nil {
			return st, err
		}
		b.check(sum.Executed == truth.cells && sum.Failed == 0, "fleet summary %+v", sum)
		files, err := readStore(dir)
		if err != nil {
			return st, err
		}
		b.check(bytes.Equal(files.results, truth.files.results) && bytes.Equal(files.refs, truth.files.refs),
			"fleet store differs from campaign-cold's for the same spec")
		os.RemoveAll(dir)

		st.secs = append(st.secs, wall.Seconds())
		st.latMs = append(st.latMs, ms(wall))
		st.cellRates = append(st.cellRates, float64(sum.Executed)/wall.Seconds())
		st.instrRates = append(st.instrRates, float64(truth.instructions)/wall.Seconds()/1e6)
		leases = append(leases, float64(sum.LeasesDispatched))
		requeued = append(requeued, float64(sum.LeasesRetried))
		wire = append(wire, float64(sum.BytesOutWire+sum.BytesInWire)/float64(max(sum.Executed, 1)))
		var rates []float64
		var h, m uint64
		for i, w := range sum.Workers {
			rates = append(rates, w.CellsPerSec)
			wh, wm, _ := ws[i].eng.Cache().Stats()
			h, m = h+wh, m+wm
		}
		workerRate = append(workerRate, mean(rates))
		hits = append(hits, float64(h)/float64(max(h+m, 1)))
		misses = append(misses, float64(m))
	}
	st.leases, st.requeued, st.wireBytesPerCell = median(leases), median(requeued), median(wire)
	st.workerCellsPerS, st.hitRatio, st.misses = median(workerRate), median(hits), median(misses)
	return st, nil
}
