// Package policy implements every SMT fetch policy the paper evaluates
// (Sections 4.3 and 6.5) and the explicit resource partitioning schemes it
// compares against (Section 6.6), all selectable by name as a Kind:
//
//	icount       — ICOUNT 2.4 baseline (Tullsen et al.), no gating
//	stall        — fetch stall on a detected long-latency load
//	               (Tullsen & Brown)
//	pstall       — predictive stall: stall on a front-end-predicted
//	               long-latency load (Cazorla et al.)
//	mlpstall     — MLP-aware stall: predict the long-latency load and its
//	               MLP distance m, fetch m more instructions, then stall
//	flush        — flush on a detected long-latency load ("TM"/"next")
//	mlpflush     — MLP-aware flush: on detection predict distance m; flush
//	               back to m instructions past the load, or keep fetching
//	               up to m, then stall (the paper's headline policy)
//	binflush     — alternative (c): binary MLP predictor; flush only when
//	               no MLP is predicted
//	mlpflush-rs  — alternative (d): MLP distance window, flush past the
//	               initial load on a resource-stall cycle
//	binflush-rs  — alternative (e): binary MLP predictor, flush past the
//	               initial load on a resource-stall cycle
//	static       — ICOUNT fetch under static resource partitioning: each of
//	               n threads owns 1/n of every buffer (Section 6.6)
//	dcra         — ICOUNT fetch under dynamically controlled resource
//	               allocation (Cazorla et al., Section 6.6)
//
// A kind is a fetch policy (New) plus, for static and dcra, a dispatch-time
// resource limiter (Limiter); together they fully describe a core's
// thread-management scheme.
//
// All long-latency-aware policies implement the continue-oldest-thread (COT)
// mechanism of Cazorla et al.: when every thread is stalled on a
// long-latency load, the thread that stalled first keeps fetching. In the
// absence of long-latency loads every policy behaves as ICOUNT (thread
// selection order is built into the core's fetch stage).
package policy

import (
	"encoding/json"
	"fmt"

	"smtmlp/internal/core"
)

// Kind enumerates the fetch policies.
type Kind int

// Fetch policy kinds, in the order the paper's figures present them.
const (
	ICount Kind = iota
	Stall
	PredStall
	MLPStall
	Flush
	MLPFlush
	BinaryFlush        // Section 6.5 alternative (c)
	MLPFlushAtStall    // Section 6.5 alternative (d)
	BinaryFlushAtStall // Section 6.5 alternative (e)
	Static             // Section 6.6 static resource partitioning
	DynamicAllocation  // Section 6.6 DCRA
	numKinds
)

// Paper enumerates the six policies of the main evaluation (Figures 9-18).
func Paper() []Kind {
	return []Kind{ICount, Stall, PredStall, MLPStall, Flush, MLPFlush}
}

// Alternatives enumerates the Section 6.5 design space (Figures 20 and 21):
// (a) flush, (b) MLP distance + flush, (c) binary MLP + flush, (d) MLP
// distance + flush at resource stall, (e) binary MLP + flush at resource
// stall.
func Alternatives() []Kind {
	return []Kind{Flush, MLPFlush, BinaryFlush, MLPFlushAtStall, BinaryFlushAtStall}
}

// String returns the policy's short name used throughout the experiments.
func (k Kind) String() string {
	switch k {
	case ICount:
		return "icount"
	case Stall:
		return "stall"
	case PredStall:
		return "pstall"
	case MLPStall:
		return "mlpstall"
	case Flush:
		return "flush"
	case MLPFlush:
		return "mlpflush"
	case BinaryFlush:
		return "binflush"
	case MLPFlushAtStall:
		return "mlpflush-rs"
	case BinaryFlushAtStall:
		return "binflush-rs"
	case Static:
		return "static"
	case DynamicAllocation:
		return "dcra"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Kinds enumerates every implemented policy kind in definition order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := ICount; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Parse resolves a policy's short name (the String form used throughout the
// experiments, e.g. "mlpflush") back to its Kind.
func Parse(name string) (Kind, error) {
	for k := ICount; k < numKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q", name)
}

// MarshalJSON encodes the kind as its short name, keeping the wire format
// stable even if the enum is ever reordered.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < ICount || k >= numKinds {
		return nil, fmt.Errorf("policy: cannot marshal unknown kind %d", int(k))
	}
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a short policy name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("policy: kind must be a JSON string, got %s", data)
	}
	parsed, err := Parse(name)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// New returns a fresh fetch policy instance of the given kind (ICOUNT for
// the partitioning kinds, whose resource management is their Limiter).
// Instances carry per-run state and must not be shared between cores.
func New(k Kind) core.Policy {
	switch k {
	case ICount, Static, DynamicAllocation:
		return core.ICount{}
	case Stall:
		return &llPolicy{kind: k, onDetect: true}
	case PredStall:
		return &llPolicy{kind: k, onPredict: true}
	case MLPStall:
		return &llPolicy{kind: k, onPredict: true, useDistance: true}
	case Flush:
		return &llPolicy{kind: k, onDetect: true, flushOnTrigger: true}
	case MLPFlush:
		return &llPolicy{kind: k, onDetect: true, useDistance: true, flushOnTrigger: true}
	case BinaryFlush:
		return &llPolicy{kind: k, onDetect: true, useBinary: true, flushOnTrigger: true}
	case MLPFlushAtStall:
		return &llPolicy{kind: k, onDetect: true, useDistance: true, flushAtResourceStall: true}
	case BinaryFlushAtStall:
		return &llPolicy{kind: k, onDetect: true, useBinary: true, flushOnTrigger: true, flushAtResourceStall: true}
	default:
		panic(fmt.Sprintf("policy: unknown kind %d", int(k)))
	}
}

// Limiter returns the dispatch-time resource limiter of the given kind:
// StaticPartition for static, DCRA for dcra, nil for every fetch-policy
// kind (those share all resources and manage them by gating fetch).
func Limiter(k Kind) core.Limiter {
	switch k {
	case Static:
		return StaticPartition{}
	case DynamicAllocation:
		return DCRA{}
	default:
		return nil
	}
}

// threadState is the per-thread gating state of llPolicy. The gate and
// active sets are arena-indexed bitmaps (core.UopSet), so the hooks on the
// simulator's hot path do word operations instead of map lookups.
type threadState struct {
	gate       core.UopSet // loads whose completion re-enables fetch
	active     core.UopSet // detected outstanding LLLs (flush-at-stall targets)
	stopSeq    uint64      // fetch window end (valid while gated)
	stallStart int64       // cycle the current gating episode began (COT)
}

// llPolicy is the shared implementation of all long-latency-aware fetch
// policies; the flags select the paper's design points.
type llPolicy struct {
	kind                 Kind
	onDetect             bool // trigger on detected long-latency misses
	onPredict            bool // trigger on front-end miss-pattern predictions
	useDistance          bool // open an MLP-distance fetch window
	useBinary            bool // consult the binary MLP predictor at detection
	flushOnTrigger       bool // flush back to the window end at trigger time
	flushAtResourceStall bool // flush past the initial load on resource stalls

	c  *core.Core
	ts []threadState
}

// Name implements core.Policy.
func (p *llPolicy) Name() string { return p.kind.String() }

// Attach implements core.Policy.
func (p *llPolicy) Attach(c *core.Core) {
	p.c = c
	p.ts = make([]threadState, c.Threads())
	for i := range p.ts {
		p.ts[i] = threadState{
			gate:       c.NewUopSet(),
			active:     c.NewUopSet(),
			stallStart: -1,
		}
	}
}

// stalled reports whether thread tid is gated with an exhausted window.
func (p *llPolicy) stalled(tid int) bool {
	t := &p.ts[tid]
	return t.gate.Len() > 0 && p.c.NextFetchSeq(tid) > t.stopSeq
}

// CanFetch implements core.Policy with the COT escape hatch.
func (p *llPolicy) CanFetch(tid int) bool {
	if !p.stalled(tid) {
		return true
	}
	// Continue the oldest thread: if every thread is stalled on a
	// long-latency load, the one that stalled first keeps allocating.
	best := -1
	var bestStart int64
	for i := 0; i < p.c.Threads(); i++ {
		if !p.stalled(i) {
			return false
		}
		if s := p.ts[i].stallStart; best == -1 || s < bestStart {
			best, bestStart = i, s
		}
	}
	return tid == best
}

// engage gates thread tid behind load u with a fetch window ending at
// stopSeq (never shrinking an existing window).
func (p *llPolicy) engage(u *core.Uop, stopSeq uint64) {
	t := &p.ts[u.Tid]
	if t.gate.Len() == 0 {
		t.stallStart = p.c.Now()
		t.stopSeq = stopSeq
	} else if stopSeq > t.stopSeq {
		t.stopSeq = stopSeq
	}
	t.gate.Add(u)
}

// release removes u from all tracking and clears the episode when the last
// gating load completes.
func (p *llPolicy) release(u *core.Uop) {
	t := &p.ts[u.Tid]
	t.gate.Remove(u)
	t.active.Remove(u)
	if t.gate.Len() == 0 {
		t.stopSeq = 0
		t.stallStart = -1
	}
}

// OnFetch implements core.Policy: prediction-triggered policies gate as soon
// as a predicted long-latency load is fetched.
func (p *llPolicy) OnFetch(u *core.Uop) {
	if !p.onPredict || !u.PredictedLLL {
		return
	}
	m := 0
	if p.useDistance {
		m = p.c.MLPState(u.Tid).Distance.Predict(u.In.PC)
	}
	p.engage(u, u.Seq()+uint64(m))
}

// OnLLLDetected implements core.Policy: detection-triggered policies react
// when the memory system reports an L3/D-TLB miss.
func (p *llPolicy) OnLLLDetected(u *core.Uop) {
	t := &p.ts[u.Tid]
	if p.flushAtResourceStall {
		t.active.Add(u)
	}
	if !p.onDetect {
		return
	}
	if p.useBinary && p.c.MLPState(u.Tid).Binary.Predict(u.In.PC) {
		// MLP predicted: let the thread keep fetching under ICOUNT.
		return
	}
	m := 0
	if p.useDistance {
		m = p.c.MLPState(u.Tid).Distance.Predict(u.In.PC)
	}
	p.engage(u, u.Seq()+uint64(m))
	if p.flushOnTrigger && p.c.NextFetchSeq(u.Tid) > t.stopSeq+1 {
		p.c.FlushAfter(u.Tid, t.stopSeq)
	}
}

// OnLoadComplete implements core.Policy.
func (p *llPolicy) OnLoadComplete(u *core.Uop) { p.release(u) }

// OnSquash implements core.Policy.
func (p *llPolicy) OnSquash(u *core.Uop) { p.release(u) }

// OnResourceStall implements core.Policy: the Section 6.5 "flush at resource
// stall" alternatives free a stalled thread's window when no thread can
// dispatch, keeping the prefetching effect of the in-flight misses.
func (p *llPolicy) OnResourceStall(now int64) {
	if !p.flushAtResourceStall {
		return
	}
	for tid := range p.ts {
		t := &p.ts[tid]
		if t.active.Len() == 0 {
			continue
		}
		// Alternative (d) only flushes threads that are sitting in their
		// post-window stall; alternative (e) flushes any thread with an
		// outstanding detected long-latency load.
		if !p.useBinary && !p.stalled(tid) {
			continue
		}
		// Every set member is live: OnSquash removed flushed loads before
		// their arena slots could be recycled.
		var oldest *core.Uop
		t.active.ForEach(func(u *core.Uop) {
			if oldest == nil || u.Seq() < oldest.Seq() {
				oldest = u
			}
		})
		if oldest == nil {
			continue
		}
		p.c.FlushAfter(tid, oldest.Seq())
		p.engage(oldest, oldest.Seq()) // stall until the initial load returns
		if t.stopSeq > oldest.Seq() {
			t.stopSeq = oldest.Seq()
		}
	}
}
