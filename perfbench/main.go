// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator and its service from the outside, checks
// every simulated output it produces, and prints its metrics as one JSON
// object on the last line of standard output. BENCHMARK.json at the root of
// the checkout names the workloads and metrics; README.md in this directory
// explains them.
//
//	bash perfbench/run.sh --workload kernel-smt --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steadiness 5 --workload serve-mixed
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smtmlp/internal/sim"
)

const (
	// defaultSeed is the seed used while the benchmark was written.
	defaultSeed = 1
	// heldOutSeed was never run while the benchmark or any change measured
	// with it was tuned; re-check a claimed gain on it (--held-out).
	heldOutSeed = 90210
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *harness) error{
	"kernel-smt":     runKernel,
	"campaign-cold":  runCampaign,
	"serve-mixed":    runServe,
	"fleet-loopback": runFleet,
}

// metricSpec and benchSpec mirror BENCHMARK.json, the one place the metric
// names, units and bounds are declared.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// harness is the state of one run of one workload.
type harness struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	record   bool // kernel-smt rewrites expected.json (--record)
	nproc    int
	rng      *rand.Rand
	tmp      string
	tr       *tracer

	// The reference phase's inputs and its timed passes (see refs.go).
	refKeys           []refKey
	refParams         sim.Params
	refRates, refSecs []float64

	setupS []float64 // kernel-smt's and serve-mixed's set-up times (setUp)

	e2e   map[string]float64 // end-to-end metrics by BENCHMARK.json name
	layer map[string]float64 // per-layer metrics by BENCHMARK.json name
	lines []string           // the human-readable report

	mu                sync.Mutex // guards the counts: serve-mixed checks from two goroutines
	attempted, failed int
	problems          []string
}

// check counts one checked operation and records it as failed unless ok.
func (b *harness) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// report adds a line to the human-readable report.
func (b *harness) report(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// scratchDir makes a fresh directory for one store under the run's scratch
// directory.
func (b *harness) scratchDir(name string) (string, error) {
	dir, err := os.MkdirTemp(b.tmp, name+"-")
	return dir, err
}

// setupReps is how many times kernel-smt and serve-mixed set up before
// their timed section, and again after it; setup_s is the median of both.
// campaign-cold and fleet-loopback time the set-up of each run in their
// timed section instead.
const setupReps = 25

// setUp times setupReps set-ups and keeps the last: it returns what that rep
// built and its teardown. Each other rep is torn down, untimed, before the
// next starts. Each rep starts from a collected heap, as set-up at process
// start does, so whether the garbage collector runs during a rep does not
// depend on what the run did before it.
func setUp[T any](b *harness, setup func() (T, func() error, error)) (T, func() error, error) {
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		v, teardown, err := setup()
		if err != nil {
			return v, nil, err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		if i == setupReps-1 {
			return v, teardown, nil
		}
		if err := teardown(); err != nil {
			return v, nil, err
		}
	}
}

// setUpEnd times setupReps more set-ups after the timed section, each torn
// down untimed, and reports setup_s from these and setUp's, so set-up
// samples the host across the run as the reference phase does.
func setUpEnd[T any](b *harness, setup func() (T, func() error, error)) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		_, teardown, err := setup()
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		if err := teardown(); err != nil {
			return err
		}
	}
	b.reportSetup(b.setupS)
	return nil
}

// reportSetup reports the median of the set-up durations ds as setup_s.
func (b *harness) reportSetup(ds []float64) {
	b.e2e["setup_s"] = median(ds)
	b.report("setup_s %.6f s (median of %d set-ups)", median(ds), len(ds))
}

// split divides the measured time between the untraced and traced halves
// of a traced run; an untraced run measures for the whole duration.
func (b *harness) split() (untraced, traced time.Duration) {
	if !b.traced {
		return b.seconds, 0
	}
	return b.seconds / 2, b.seconds - b.seconds/2
}

// finishTrace turns the recorded spans into <layer>.self_ms and
// <layer>.wait_ms, reports the tracing overhead (the traced half's
// cells_per_s and median latency minus the untraced half's) and writes the
// spans out.
func (b *harness) finishTrace(untracedCellsPerS, tracedCellsPerS, untracedP50, tracedP50 float64) {
	self, wait, n := b.tr.layerTimes()
	for _, l := range layers {
		b.layer[l+".self_ms"] = ms(self[l])
		b.layer[l+".wait_ms"] = ms(wait[l])
	}
	b.layer["tracing.spans"] = float64(n)
	b.layer["tracing.cells_per_s_delta"] = tracedCellsPerS - untracedCellsPerS
	b.layer["tracing.latency_p50_ms_delta"] = tracedP50 - untracedP50
	if untracedCellsPerS > 0 {
		b.layer["tracing.overhead_frac"] = 1 - tracedCellsPerS/untracedCellsPerS
	}
	b.report("tracing: %d spans; traced minus untraced: cells_per_s %+.3f, latency_p50_ms %+.3f",
		n, tracedCellsPerS-untracedCellsPerS, tracedP50-untracedP50)
	name := fmt.Sprintf("%s-seed%d", b.workload, b.seed)
	if path, err := b.tr.write(name); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		b.report("spans written to %s", path)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: kernel-smt, campaign-cold, serve-mixed or fleet-loopback (with --steadiness, the one workload to repeat; default all)")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	heldOut := flag.Bool("held-out", false, fmt.Sprintf("use the held-out seed %d instead of --seed", heldOutSeed))
	seconds := flag.Int("seconds", 0, "seconds to measure (0 = run_seconds from BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	steadiness := flag.Int("steadiness", 0, "run each workload this many times (seeds 1..N) and report each end-to-end metric's spread against its bound")
	record := flag.Bool("record", false, "kernel-smt only: rewrite perfbench/expected.json from this run's results (a deliberate behaviour change)")
	flag.Parse()

	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading BENCHMARK.json: %v\n", err)
		os.Exit(1)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	run, ok := workloads[*workload]
	if !ok && (*steadiness == 0 || *workload != "") {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *steadiness > 0 {
		os.Exit(steadinessReport(spec, *steadiness, *seconds, *workload))
	}
	if *heldOut {
		*seed = heldOutSeed
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	tmp, err = os.MkdirTemp(tmp, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	h := fnv.New64a()
	h.Write([]byte(*workload))
	b := &harness{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		record:   *record,
		nproc:    runtime.NumCPU(),
		rng:      rand.New(rand.NewPCG(*seed, h.Sum64())),
		tmp:      tmp,
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
	}
	if b.traced {
		b.tr = newTracer()
	}
	b.report("perfbench %s seed=%d seconds=%d trace=%d nproc=%d", b.workload, b.seed, *seconds, *traceFlag, b.nproc)

	err = run(context.Background(), b)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	b.e2e["peak_rss_mb"] = peakRSSMiB()
	os.Exit(b.emit(spec))
}

// emit prints the report and the result line. Every metric BENCHMARK.json
// lists must have been measured. The report also lists the per-layer
// numbers of layers only some workloads use, which the result line leaves
// out.
func (b *harness) emit(spec benchSpec) int {
	attempted := max(b.attempted, 1)
	b.report("failed_frac %.6f ratio (%d failed of %d attempted)", float64(b.failed)/float64(attempted), b.failed, attempted)
	for _, p := range b.problems {
		b.report("FAILED: %s", p)
	}
	out := resultOut{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	list, values := spec.EndToEnd, b.e2e
	if b.traced {
		list, values = spec.PerLayer, b.layer
	}
	var missing []string
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s measured no value for %s\n", b.workload, strings.Join(missing, ", "))
		return 1
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, l := range b.lines {
		fmt.Println(l)
	}
	for _, k := range names {
		fmt.Printf("  %-36s %.6g\n", k, values[k])
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
