package policy

import (
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/trace"
)

func mlpPair() []trace.Model {
	return []trace.Model{bench.MustGet("mcf").Model, bench.MustGet("galgel").Model}
}

func runPair(t *testing.T, kind Kind, limiter core.Limiter, n uint64) (*core.Core, core.Result) {
	t.Helper()
	c := core.New(core.DefaultConfig(2), mlpPair(), New(kind), limiter)
	c.Run(n / 2)
	c.ResetStats()
	return c, c.Run(n)
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		ICount: "icount", Stall: "stall", PredStall: "pstall", MLPStall: "mlpstall",
		Flush: "flush", MLPFlush: "mlpflush", BinaryFlush: "binflush",
		MLPFlushAtStall: "mlpflush-rs", BinaryFlushAtStall: "binflush-rs",
		Static: "static", DynamicAllocation: "dcra",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
		if lim := Limiter(k); lim != nil {
			// Partitioning kinds fetch under ICOUNT; the limiter names them.
			if lim.Name() != s || New(k).Name() != "icount" {
				t.Errorf("%s: limiter %q, fetch policy %q", s, lim.Name(), New(k).Name())
			}
		} else if New(k).Name() != s {
			t.Errorf("New(%s).Name() = %q", s, New(k).Name())
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 11 {
		t.Fatalf("Kinds() has %d entries, want 11", len(kinds))
	}
	for _, k := range kinds {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse accepted a bogus policy name")
	}
}

func TestKindJSON(t *testing.T) {
	b, err := MLPFlush.MarshalJSON()
	if err != nil || string(b) != `"mlpflush"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"binflush-rs"`)); err != nil || k != BinaryFlushAtStall {
		t.Fatalf("UnmarshalJSON = %v, %v", k, err)
	}
	// JSON escape sequences are valid string encodings and must decode.
	if err := k.UnmarshalJSON([]byte(`"\u0069count"`)); err != nil || k != ICount {
		t.Fatalf("UnmarshalJSON of escaped name = %v, %v", k, err)
	}
	if err := k.UnmarshalJSON([]byte(`"nope"`)); err == nil {
		t.Fatal("UnmarshalJSON accepted an unknown name")
	}
	if err := k.UnmarshalJSON([]byte(`3`)); err == nil {
		t.Fatal("UnmarshalJSON accepted a non-string")
	}
	if _, err := Kind(99).MarshalJSON(); err == nil {
		t.Fatal("MarshalJSON accepted an unknown kind")
	}
}

func TestPaperAndAlternativesLists(t *testing.T) {
	if len(Paper()) != 6 {
		t.Fatalf("Paper() has %d policies, the main evaluation compares 6", len(Paper()))
	}
	if len(Alternatives()) != 5 {
		t.Fatalf("Alternatives() has %d policies, Section 6.5 compares 5 (a-e)", len(Alternatives()))
	}
	if Alternatives()[0] != Flush || Alternatives()[1] != MLPFlush {
		t.Fatal("alternatives (a) and (b) are flush and mlpflush")
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(unknown) did not panic")
		}
	}()
	New(Kind(99))
}

func TestEveryPolicyCompletes(t *testing.T) {
	for _, k := range append(Paper(), Alternatives()...) {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			_, res := runPair(t, k, nil, 20_000)
			for tid, committed := range res.Committed {
				if committed == 0 {
					t.Fatalf("thread %d starved under %s", tid, k)
				}
			}
		})
	}
}

func TestFlushPoliciesFlush(t *testing.T) {
	_, res := runPair(t, Flush, nil, 30_000)
	if res.Flushes[0]+res.Flushes[1] == 0 {
		t.Fatal("flush policy never flushed an MLP-intensive pair")
	}
}

func TestStallPoliciesNeverFlush(t *testing.T) {
	for _, k := range []Kind{Stall, PredStall, MLPStall} {
		_, res := runPair(t, k, nil, 20_000)
		if res.Flushes[0]+res.Flushes[1] != 0 {
			t.Fatalf("%s flushed %v times", k, res.Flushes)
		}
	}
}

func TestStallFreesResources(t *testing.T) {
	_, icount := runPair(t, ICount, nil, 30_000)
	_, stall := runPair(t, Stall, nil, 30_000)
	// Under stall the memory-bound thread (mcf, thread 0) must hold fewer
	// ROB entries on average than under ICOUNT.
	if stall.AvgROBOccupancy[0] >= icount.AvgROBOccupancy[0] {
		t.Fatalf("stall did not reduce the stalled thread's occupancy: %.1f vs %.1f",
			stall.AvgROBOccupancy[0], icount.AvgROBOccupancy[0])
	}
}

func TestFlushFreesMoreThanStall(t *testing.T) {
	_, stall := runPair(t, Stall, nil, 30_000)
	_, flush := runPair(t, Flush, nil, 30_000)
	if flush.AvgROBOccupancy[0] >= stall.AvgROBOccupancy[0] {
		t.Fatalf("flush (%.1f entries) did not free more than stall (%.1f)",
			flush.AvgROBOccupancy[0], stall.AvgROBOccupancy[0])
	}
}

func TestMLPFlushPreservesMLP(t *testing.T) {
	_, flush := runPair(t, Flush, nil, 40_000)
	_, mlpflush := runPair(t, MLPFlush, nil, 40_000)
	// The paper's core claim: the MLP-aware policy exposes more of the
	// memory-bound thread's MLP than plain flush.
	if mlpflush.MLP[0] <= flush.MLP[0] {
		t.Fatalf("MLP-aware flush exposed less MLP than flush: %.2f vs %.2f",
			mlpflush.MLP[0], flush.MLP[0])
	}
	// And the MLP thread runs faster than under flush.
	if mlpflush.IPC[0] <= flush.IPC[0] {
		t.Fatalf("MLP thread slower under mlpflush (%.3f) than flush (%.3f)",
			mlpflush.IPC[0], flush.IPC[0])
	}
}

func TestFlushHelpsPartnerThread(t *testing.T) {
	_, icount := runPair(t, ICount, nil, 30_000)
	_, flush := runPair(t, Flush, nil, 30_000)
	if flush.IPC[1] <= icount.IPC[1] {
		t.Fatalf("partner thread not faster under flush: %.3f vs %.3f", flush.IPC[1], icount.IPC[1])
	}
}

// TestCOTPreventsStarvation: two copies of a miss-dominated benchmark under
// a stall policy would deadlock-starve without continue-oldest-thread; with
// COT both make progress.
func TestCOTPreventsStarvation(t *testing.T) {
	models := []trace.Model{bench.MustGet("mcf").Model, bench.MustGet("equake").Model}
	c := core.New(core.DefaultConfig(2), models, New(Stall), nil)
	res := c.Run(15_000)
	if res.Committed[0] == 0 || res.Committed[1] == 0 {
		t.Fatalf("a thread starved despite COT: %v", res.Committed)
	}
}

func TestStaticPartitionCapsOccupancy(t *testing.T) {
	c, res := runPair(t, ICount, StaticPartition{}, 30_000)
	cap := float64(c.Cfg().ROBSize) / 2
	for tid, occ := range res.AvgROBOccupancy {
		if occ > cap {
			t.Fatalf("thread %d average ROB occupancy %.1f exceeds static share %.0f", tid, occ, cap)
		}
	}
}

func TestStaticPartitionName(t *testing.T) {
	if (StaticPartition{}).Name() != "static" || (DCRA{}).Name() != "dcra" {
		t.Fatal("limiter names wrong")
	}
}

func TestDCRACompletes(t *testing.T) {
	_, res := runPair(t, ICount, DCRA{}, 20_000)
	if res.Committed[0] == 0 || res.Committed[1] == 0 {
		t.Fatalf("DCRA starved a thread: %v", res.Committed)
	}
}

func TestDCRAGivesSlowThreadMore(t *testing.T) {
	_, static := runPair(t, ICount, StaticPartition{}, 30_000)
	_, dcra := runPair(t, ICount, DCRA{}, 30_000)
	// mcf (thread 0) is the memory-intensive thread: DCRA should let it
	// hold more of the machine than a rigid 50% split does on average,
	// without starving the partner.
	if dcra.AvgROBOccupancy[0] <= static.AvgROBOccupancy[0]*0.9 {
		t.Fatalf("DCRA occupancy for the slow thread (%.1f) not above static (%.1f)",
			dcra.AvgROBOccupancy[0], static.AvgROBOccupancy[0])
	}
	if dcra.Committed[1] == 0 {
		t.Fatal("DCRA starved the fast thread")
	}
}

func TestResourceStallAlternativesFlush(t *testing.T) {
	// Alternative (d) flushes only on resource-stall cycles; on a heavily
	// contended MLP pair those occur and produce squashes.
	_, res := runPair(t, MLPFlushAtStall, nil, 40_000)
	if res.Committed[0] == 0 || res.Committed[1] == 0 {
		t.Fatal("alternative (d) starved a thread")
	}
}

func TestBinaryFlushGatesOnlyNoMLP(t *testing.T) {
	// On an MLP-heavy pair the binary predictor mostly predicts MLP, so
	// binflush should flush less than plain flush.
	_, flush := runPair(t, Flush, nil, 30_000)
	_, bin := runPair(t, BinaryFlush, nil, 30_000)
	if bin.Flushes[0] >= flush.Flushes[0] && flush.Flushes[0] > 0 {
		t.Fatalf("binary MLP flush flushed as much as plain flush: %d vs %d",
			bin.Flushes[0], flush.Flushes[0])
	}
}
