package experiments

import (
	"context"
	"strings"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// tinyRunner keeps experiment tests fast; experiment structure, not
// measurement quality, is under test here.
func tinyRunner() *sim.Runner {
	return sim.NewRunner(sim.Params{Instructions: 8_000, Warmup: 4_000})
}

// tinyCampaigns runs figure grids at tinyRunner's budget into a fresh store.
func tinyCampaigns(t *testing.T) *Campaigns {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &Campaigns{Store: st, Instructions: 8_000, Warmup: 4_000}
}

// mixesSpec is a grid over explicit workloads: a reduced stand-in for a
// figure's table.
func mixesSpec(workloads []bench.Workload, kinds []policy.Kind) campaign.Spec {
	var spec campaign.Spec
	for _, k := range kinds {
		spec.Policies = append(spec.Policies, k.String())
	}
	for _, w := range workloads {
		spec.Workloads.Mixes = append(spec.Workloads.Mixes, w.Benchmarks)
	}
	return spec
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "n")
	s := tbl.String()
	for _, want := range []string{"T", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableIStructure(t *testing.T) {
	// Classification needs enough instructions for rare-burst benchmarks
	// (galgel's bursts recur every ~18K instructions) to miss at all.
	res := TableI(context.Background(), sim.NewRunner(sim.Params{Instructions: 40_000, Warmup: 10_000}))
	if len(res.Rows) != 26 {
		t.Fatalf("Table I has %d rows, want 26", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Name == "" || r.IPC <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.MLP < 1 {
			t.Fatalf("%s MLP %v < 1", r.Name, r.MLP)
		}
		if r.Impact < 0 || r.Impact > 1 {
			t.Fatalf("%s impact %v out of [0,1]", r.Name, r.Impact)
		}
	}
	match, total := res.ClassAgreement()
	if total != 26 {
		t.Fatal("agreement total wrong")
	}
	// Even at reduced budgets the broad ILP/MLP split must hold.
	if match < 20 {
		t.Fatalf("only %d/26 class agreements at reduced budget", match)
	}
	if !strings.Contains(res.String(), "mcf") {
		t.Fatal("rendering lost benchmarks")
	}
}

func TestFigure4Structure(t *testing.T) {
	res := Figure4(context.Background(), tinyRunner())
	if len(res.Benchmarks) != 6 {
		t.Fatalf("Figure 4 covers %d benchmarks, want 6", len(res.Benchmarks))
	}
	for i, cdf := range res.CDF {
		if len(cdf) == 0 {
			t.Fatalf("%s has an empty CDF", res.Benchmarks[i])
		}
		last := 0.0
		for d, v := range cdf {
			if v < last-1e-9 {
				t.Fatalf("%s CDF not monotonic at %d", res.Benchmarks[i], d)
			}
			last = v
		}
		if last < 0.99 {
			t.Fatalf("%s CDF does not reach 1 (%v)", res.Benchmarks[i], last)
		}
	}
	_ = res.String()
}

func TestFigure5Structure(t *testing.T) {
	res := Figure5(context.Background(), tinyRunner())
	if len(res.Rows) != 26 {
		t.Fatalf("Figure 5 rows %d", len(res.Rows))
	}
	sawSpeedup := false
	for _, r := range res.Rows {
		if r.IPCPrefetch <= 0 || r.IPCNoPrefetch <= 0 {
			t.Fatalf("%s has non-positive IPC", r.Name)
		}
		if r.Speedup > 0.05 {
			sawSpeedup = true
		}
	}
	if !sawSpeedup {
		t.Fatal("prefetching sped up no benchmark at all")
	}
	if res.HarmonicSpeedup <= 0 {
		t.Fatalf("overall prefetch speedup %v, expected positive (paper: 20.2%%)", res.HarmonicSpeedup)
	}
	_ = res.String()
}

func TestPredictorsStructure(t *testing.T) {
	res := Predictors(context.Background(), tinyRunner())
	if len(res.Rows) != 26 {
		t.Fatalf("predictor rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.HitMissAccuracy < 0.5 {
			t.Fatalf("%s long-latency predictor accuracy %v implausibly low", r.Name, r.HitMissAccuracy)
		}
		if r.HasMLPData {
			if s := r.TP + r.TN + r.FP + r.FN; s < 0.99 || s > 1.01 {
				t.Fatalf("%s binary fractions sum %v", r.Name, s)
			}
		}
	}
	for _, s := range []string{res.Figure6String(), res.Figure7String(), res.Figure8String()} {
		if !strings.Contains(s, "mcf") {
			t.Fatal("figure rendering incomplete")
		}
	}
}

// TestPolicyComparisonSubset runs the Figure 9/10 machinery on a reduced
// workload list to keep the test quick.
func TestPolicyComparisonSubset(t *testing.T) {
	workloads := bench.TwoThreadWorkloads()[:8] // 6 ILP + 2 MLP pairs
	pc, err := tinyCampaigns(t).compare(context.Background(), "test", mixesSpec(workloads, policy.Paper()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Groups) != 2 {
		t.Fatalf("groups %v, want ILP and MLP", pc.Groups)
	}
	if len(pc.Policies) != 6 {
		t.Fatalf("policies %v", pc.Policies)
	}
	for _, g := range pc.Groups {
		stats := pc.ByGroup[g]
		if len(stats) != 6 {
			t.Fatalf("group %v has %d policy entries", g, len(stats))
		}
		for _, s := range stats {
			if s.STP <= 0 || s.ANTT <= 0 {
				t.Fatalf("group %v policy %s bad stats %+v", g, s.Policy, s)
			}
		}
	}
	if _, ok := pc.GroupPolicy(bench.ILPWorkload, "icount"); !ok {
		t.Fatal("GroupPolicy lookup failed")
	}
	if !strings.Contains(pc.String(), "STP") {
		t.Fatal("comparison rendering broken")
	}
	if !strings.Contains(pc.IPCStacks(bench.MLPWorkload), "mcf") {
		t.Fatal("IPC stack rendering missing workloads")
	}
}
