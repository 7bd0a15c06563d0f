package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smtmlp"
)

// layers are the program's layers as the benchmark names them: one per
// package whose public functions it calls (smtmlp is the root package's
// Engine, sim the Runner and RefCache).
var layers = []string{
	"trace", "mem", "core", "policy", "sim", "smtmlp",
	"campaign", "store", "server", "tenant", "fleet",
}

// span is one recorded call into a layer. Wait spans record time a piece of
// work spent queued for the layer rather than running in it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Wait   bool   `json:"wait,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on. A nil tracer, or one that is
// off, records nothing; untraced runs never turn one on.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// record stores a finished span and returns its ID (0 when not tracing).
func (t *tracer) record(parent int64, layer, name, cell string, wait bool, start, end time.Time) int64 {
	if !t.enabled() {
		return 0
	}
	id := t.next.Add(1)
	s := span{ID: id, Parent: parent, Layer: layer, Name: name, Cell: cell, Wait: wait,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// open starts a span whose ID children can name as parent before it ends;
// the returned func ends it.
func (t *tracer) open(parent int64, layer, name, cell string) (int64, func()) {
	if !t.enabled() {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Now()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Cell: cell,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
		t.mu.Unlock()
	}
}

// layerTimes derives each layer's self time (span duration minus the part
// of it covered by child spans) and waiting time (the self time of its wait
// spans).
func (t *tracer) layerTimes() (self, wait map[string]time.Duration, n int) {
	self = make(map[string]time.Duration)
	wait = make(map[string]time.Duration)
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		// A wait span marks work queued, not the parent busy on its behalf,
		// so it does not reduce the parent's self time.
		if s.Parent != 0 && !s.Wait {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		if s.Wait {
			wait[s.Layer] += d
		} else {
			self[s.Layer] += d
		}
	}
	return self, wait, len(t.spans)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's; children may overlap when they ran concurrently.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write saves the spans as NDJSON under .bench_build/traces.
func (t *tracer) write(name string) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}

// spanGate is a slot gate the benchmark installs to see each simulation
// start and finish from outside the engine. It delegates to inner (nil
// admits at once) and, per simulation, records the time from submission to
// the gate (smtmlp layer, waiting), the time inside inner (waitLayer,
// waiting) and the slot's hold (smtmlp layer, busy).
type spanGate struct {
	inner     smtmlp.SlotGate
	tr        *tracer
	waitLayer string
	// parent and submitted apply to every simulation unless parentOf
	// resolves them from the simulation's context.
	parent    int64
	submitted time.Time
	parentOf  func(ctx context.Context) (parent int64, submitted time.Time)

	mu    sync.Mutex
	waits []float64 // ms from submission to slot grant
}

func (g *spanGate) Acquire(ctx context.Context) (func(), error) {
	s0 := time.Now()
	release := func() {}
	if g.inner != nil {
		r, err := g.inner.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		release = r
	}
	s1 := time.Now()
	parent, submitted := g.parent, g.submitted
	if g.parentOf != nil {
		parent, submitted = g.parentOf(ctx)
	}
	if !submitted.IsZero() {
		g.mu.Lock()
		g.waits = append(g.waits, ms(s1.Sub(submitted)))
		g.mu.Unlock()
	}
	if !g.tr.enabled() {
		return release, nil
	}
	if !submitted.IsZero() {
		g.tr.record(parent, "smtmlp", "batch queue", "", true, submitted, s0)
	}
	if g.inner != nil {
		g.tr.record(parent, g.waitLayer, "SlotGate.Acquire", "", true, s0, s1)
	}
	return func() {
		release()
		g.tr.record(parent, "smtmlp", "simulation", "", false, s1, time.Now())
	}, nil
}

// meanWaitMs is the mean time from submission to slot grant.
func (g *spanGate) meanWaitMs() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return mean(g.waits)
}
