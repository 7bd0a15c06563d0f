package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"smtmlp"
	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/isa"
	"smtmlp/internal/mem"
	"smtmlp/internal/metrics"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
	"smtmlp/internal/trace"
)

// cellResult is the simulated outcome of one cell that the benchmark
// checks: it is exact, so any difference is a behaviour change.
type cellResult struct {
	Tag       string   `json:"tag"`
	Cycles    int64    `json:"cycles"`
	Committed []uint64 `json:"committed"`
	STP       float64  `json:"stp"`
	ANTT      float64  `json:"antt"`
}

func resultOf(tag string, r smtmlp.WorkloadResult) cellResult {
	out := cellResult{Tag: tag, Cycles: r.Cycles, STP: r.STP, ANTT: r.ANTT}
	for _, t := range r.Threads {
		out.Committed = append(out.Committed, t.Committed)
	}
	return out
}

func (c cellResult) equal(o cellResult) bool {
	if c.Cycles != o.Cycles || c.STP != o.STP || c.ANTT != o.ANTT || len(c.Committed) != len(o.Committed) {
		return false
	}
	for i := range c.Committed {
		if c.Committed[i] != o.Committed[i] {
			return false
		}
	}
	return true
}

func (c cellResult) instructions() uint64 {
	var n uint64
	for _, x := range c.Committed {
		n += x
	}
	return n
}

func models(names []string) []trace.Model {
	ms := make([]trace.Model, len(names))
	for i, n := range names {
		ms[i] = bench.MustGet(n).Model
	}
	return ms
}

// workloadClass labels a mix with its Table II/III class.
func workloadClass(names []string) string {
	tables := append(bench.TwoThreadWorkloads(), bench.FourThreadWorkloads()...)
	for _, w := range tables {
		if w.Name() == smtmlp.Mix(names...).Name() {
			return w.Class.String()
		}
	}
	ilp, mlp := 0, 0
	for _, n := range names {
		if bench.MustGet(n).PaperClass == bench.MLP {
			mlp++
		} else {
			ilp++
		}
	}
	switch {
	case mlp == 0:
		return bench.ILPWorkload.String()
	case ilp == 0:
		return bench.MLPWorkload.String()
	}
	return bench.MixedWorkload.String()
}

// layerDrivers measures the kernel layers directly on the workload's own
// inputs: trace.Generator.Next and mem.Hierarchy.Load/Store over each
// benchmark model, and the cells themselves driven through policy.New,
// core.New/Core.Run and the sim layer's references — the calls the Engine
// makes, made here so each can be timed and spanned. want holds the results
// the Engine produced for the same cells; the direct path must reproduce
// them exactly.
func (b *harness) layerDrivers(ctx context.Context, reqs []smtmlp.Request, want map[string]cellResult,
	runner *sim.Runner) error {
	root, end := b.tr.open(0, "core", "layer-drivers", "")
	defer end()
	names := distinctBenchmarks(reqs)
	b.traceAndMem(root, names)

	var measured time.Duration
	var cycles int64
	var committed, fetched, flushes, squashed, stalls uint64
	classTime := make(map[string]time.Duration)
	classInstr := make(map[string]uint64)
	warm := runner.Params.EffectiveWarmup()
	for _, req := range reqs {
		cell := req.Tag
		s0 := time.Now()
		pol := policy.New(req.Policy)
		b.tr.record(root, "policy", "policy.New", cell, false, s0, time.Now())

		s0 = time.Now()
		c := core.New(req.Config, models(req.Workload.Benchmarks), pol, nil)
		if warm > 0 {
			c.Run(warm)
			c.ResetStats()
		}
		s1 := time.Now()
		res := c.Run(runner.Params.Instructions)
		s2 := time.Now()
		b.tr.record(root, "core", "Core.Run warm-up", cell, false, s0, s1)
		b.tr.record(root, "core", "Core.Run", cell, false, s1, s2)

		perThread := make([]metrics.ThreadPerf, len(req.Workload.Benchmarks))
		for i, name := range req.Workload.Benchmarks {
			s0 = time.Now()
			ref, err := runner.STReferenceCtx(ctx, req.Config, name)
			b.tr.record(root, "sim", "Runner.STReference", cell, false, s0, time.Now())
			if err != nil {
				return fmt.Errorf("reference %s: %w", name, err)
			}
			perThread[i] = metrics.ThreadPerf{CPIST: ref.CPIAt(res.Committed[i]),
				CPIMT: float64(res.Cycles) / float64(res.Committed[i])}
		}
		got := cellResult{Tag: cell, Cycles: res.Cycles, Committed: append([]uint64(nil), res.Committed...),
			STP: metrics.STP(perThread), ANTT: metrics.ANTT(perThread)}
		if w, ok := want[cell]; ok {
			b.check(got.equal(w), "%s: core driven directly gives %+v, the engine gave %+v", cell, got, w)
		}

		d := s2.Sub(s1)
		measured += d
		cycles += res.Cycles
		class := workloadClass(req.Workload.Benchmarks)
		classTime[class] += d
		for i := range res.Committed {
			committed += res.Committed[i]
			fetched += res.Fetched[i]
			flushes += res.Flushes[i]
			squashed += res.Squashed[i]
			classInstr[class] += res.Committed[i]
		}
		stalls += res.ResourceStallCycles
	}
	b.layer["core.ns_per_cycle"] = float64(measured.Nanoseconds()) / float64(cycles)
	b.layer["core.ns_per_instr"] = float64(measured.Nanoseconds()) / float64(committed)
	for _, class := range []string{"ILP", "MLP", "mixed"} {
		if n := classInstr[class]; n > 0 {
			b.layer["core.ns_per_instr."+class] = float64(classTime[class].Nanoseconds()) / float64(n)
		}
	}
	b.layer["core.resource_stall_frac"] = float64(stalls) / float64(cycles)
	b.layer["policy.useful_fetch_ratio"] = float64(committed) / float64(fetched)
	b.layer["policy.flushes_per_1k"] = 1000 * float64(flushes) / float64(committed)
	b.layer["policy.squashed_per_1k"] = 1000 * float64(squashed) / float64(committed)
	b.report("core driven directly over %d cells: %.1f ns/cycle, %.1f ns/instr", len(reqs),
		b.layer["core.ns_per_cycle"], b.layer["core.ns_per_instr"])

	b.allocsAndIntervalTrace(root, reqs[0], runner.Params.Instructions, warm)
	return nil
}

// diagonal picks one cell per mix from a policy-major expansion over
// policies policies, rotating through the policies: every mix and every
// policy is driven, in a third of the cells.
func diagonal(reqs []smtmlp.Request, policies int) []smtmlp.Request {
	mixes := len(reqs) / policies
	out := make([]smtmlp.Request, 0, mixes)
	for m := 0; m < mixes; m++ {
		out = append(out, reqs[(m%policies)*mixes+m])
	}
	return out
}

func distinctBenchmarks(reqs []smtmlp.Request) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range reqs {
		for _, n := range r.Workload.Benchmarks {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// traceDriverInstrs is how many instructions the trace driver draws from
// each benchmark model.
const traceDriverInstrs = 100_000

// traceAndMem feeds each model through trace.Generator.Next, then the
// generated loads and stores, in program order and one instruction per
// cycle, through a fresh single-thread mem.Hierarchy.
func (b *harness) traceAndMem(parent int64, names []string) {
	buf := make([]isa.Instr, traceDriverInstrs)
	var genTime, memTime time.Duration
	var generated, accesses, l1Acc, l1Miss, l2Acc, l2Miss uint64
	memCfg := core.DefaultConfig(1).Mem
	for _, name := range names {
		g := trace.NewGenerator(bench.MustGet(name).Model, 0)
		s0 := time.Now()
		for i := range buf {
			buf[i] = g.Next()
		}
		s1 := time.Now()
		b.tr.record(parent, "trace", "Generator.Next", name, false, s0, s1)
		genTime += s1.Sub(s0)
		generated += uint64(len(buf))

		h := mem.New(memCfg)
		s0 = time.Now()
		for i := range buf {
			in := &buf[i]
			switch in.Class {
			case isa.Load:
				h.Load(0, in.PC, in.Addr, int64(i))
				accesses++
			case isa.Store:
				h.Store(0, in.Addr, int64(i))
				accesses++
			}
		}
		s1 = time.Now()
		b.tr.record(parent, "mem", "Hierarchy.Load/Store", name, false, s0, s1)
		memTime += s1.Sub(s0)
		l1, l2, _ := h.Caches()
		l1Acc += l1.Accesses
		l1Miss += l1.Misses
		l2Acc += l2.Accesses
		l2Miss += l2.Misses
	}
	b.layer["trace.next_ns"] = float64(genTime.Nanoseconds()) / float64(generated)
	b.layer["mem.load_ns"] = float64(memTime.Nanoseconds()) / float64(accesses)
	b.layer["mem.l1_miss_ratio"] = float64(l1Miss) / float64(l1Acc)
	b.layer["mem.l2_miss_ratio"] = float64(l2Miss) / float64(l2Acc)
}

// allocsAndIntervalTrace brackets a warmed Core.Run with runtime.MemStats
// and times Core.Run with the interval recorder on against off.
func (b *harness) allocsAndIntervalTrace(parent int64, req smtmlp.Request, instructions, warm uint64) {
	ms := models(req.Workload.Benchmarks)
	c := core.New(req.Config, ms, policy.New(req.Policy), nil)
	c.Run(warm)
	c.ResetStats()
	c.Run(instructions)
	// Core.Run allocates its result and profile buffers once per call; the
	// difference between a one-instruction run and a long run leaves only
	// what the kernel allocates per instruction.
	bracket := func(stopAt uint64) (mallocs, instrs uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := c.Run(stopAt)
		runtime.ReadMemStats(&m1)
		for _, n := range res.Committed {
			instrs += n
		}
		return m1.Mallocs - m0.Mallocs, instrs
	}
	base := instructions + 1
	smallM, smallI := bracket(base)
	bigM, bigI := bracket(base + 4*instructions)
	kinstr := float64(bigI-smallI) / 1000
	b.layer["core.allocs_per_kinstr"] = (float64(bigM) - float64(smallM)) / kinstr

	var ratios []float64
	for rep := 0; rep < 3; rep++ {
		var d [2]time.Duration
		for i, on := range []bool{false, true} {
			c := core.New(req.Config, ms, policy.New(req.Policy), nil)
			if on {
				c.EnableIntervalTrace(1000)
			}
			s0 := time.Now()
			c.Run(warm)
			c.ResetStats()
			c.Run(instructions)
			d[i] = time.Since(s0)
			b.tr.record(parent, "core", fmt.Sprintf("Core.Run interval-trace=%v", on), req.Tag, false, s0, time.Now())
		}
		ratios = append(ratios, d[1].Seconds()/d[0].Seconds())
	}
	b.layer["core.interval_trace_overhead"] = median(ratios) - 1
}
