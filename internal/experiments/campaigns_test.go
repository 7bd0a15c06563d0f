package experiments

import (
	"context"
	"reflect"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/core"
	"smtmlp/internal/metrics"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// TestPolicyComparisonCampaignMatchesDirect pins the store-backed Figure
// 9/10 comparison to the paper's methodology computed directly: every
// per-class average equals the harmonic-mean STP and arithmetic-mean ANTT
// of sim.Runner simulations of that class's Table II workloads, in table
// order (the simulator is deterministic, so the values are bit-equal). A
// second invocation must come entirely from the store.
func TestPolicyComparisonCampaignMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table II policy grid twice; skipped in -short")
	}
	const instructions, warmup = 4_000, 1_000
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var sums []campaign.Summary
	c := &Campaigns{Store: st, Instructions: instructions, Warmup: warmup,
		Report: func(s campaign.Summary) { sums = append(sums, s) }}

	pc, err := c.Figure9and10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Total != 36*6 || sums[0].Executed != sums[0].Total || sums[0].Failed != 0 {
		t.Fatalf("campaign summaries %+v", sums)
	}
	if len(pc.Groups) != 3 || len(pc.Policies) != 6 {
		t.Fatalf("groups=%d policies=%d", len(pc.Groups), len(pc.Policies))
	}

	r := sim.NewRunner(sim.Params{Instructions: instructions, Warmup: warmup})
	for _, class := range pc.Groups {
		for ki, k := range policy.Paper() {
			var stps, antts []float64
			for _, w := range bench.WorkloadsByClass(bench.TwoThreadWorkloads(), class) {
				res := r.RunWorkload(core.DefaultConfig(2), w, k)
				stps = append(stps, res.STP)
				antts = append(antts, res.ANTT)
			}
			want := GroupStats{Policy: k.String(), STP: metrics.HarmonicMean(stps), ANTT: metrics.ArithmeticMean(antts)}
			if got := pc.ByGroup[class][ki]; got != want {
				t.Fatalf("%s/%s: campaign %+v, direct %+v", class, k, got, want)
			}
		}
	}

	// Second invocation: pure store reads, identical aggregation.
	sums = nil
	pc2, err := c.Figure9and10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Executed != 0 || sums[0].Skipped != 36*6 {
		t.Fatalf("re-run summary %+v", sums[0])
	}
	if !reflect.DeepEqual(pc, pc2) {
		t.Fatal("store-backed re-aggregation diverged")
	}
}

// TestPolicySweepSpecValidation checks every figure grid's spec: it
// validates and expands to its table's workloads under its policies at
// each configuration point, with configurations of the table's width.
func TestPolicySweepSpecValidation(t *testing.T) {
	two22, four22 := Figure22and23Specs()
	for _, tc := range []struct {
		spec           campaign.Spec
		cells, threads int
	}{
		{Figure9and10Spec(), 36 * 6, 2},
		{Figure13and14Spec(), 30 * 6, 4},
		{Figure15and16Spec(), 36 * 6 * 4, 2},
		{Figure17and18Spec(), 36 * 6 * 4, 2},
		{Figure20and21Spec(), 36 * 5, 2},
		{two22, 36 * 3, 2},
		{four22, 30 * 3, 4},
	} {
		reqs, _, err := tc.spec.Requests()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		if len(reqs) != tc.cells {
			t.Fatalf("%s has %d cells, want %d", tc.spec.Name, len(reqs), tc.cells)
		}
		if reqs[0].Config.Threads != tc.threads {
			t.Fatalf("%s built a %d-thread config", tc.spec.Name, reqs[0].Config.Threads)
		}
	}
}
