package experiments

import (
	"context"

	"smtmlp/internal/campaign"
	"smtmlp/internal/policy"
)

// Figure20and21Spec is the alternative-policy study's grid: the Table II
// workloads under policies (a)-(e) of Figure 19.
func Figure20and21Spec() campaign.Spec {
	return specOf("fig20-21", "two_thread", policy.Alternatives())
}

// Figure20and21 reproduces the alternative MLP-aware fetch policies study
// (Section 6.5): policies (a)-(e) of Figure 19 over the three two-thread
// workload groups, reported as STP (Figure 20) and ANTT (Figure 21).
func (c *Campaigns) Figure20and21(ctx context.Context) (PolicyComparison, error) {
	return c.compare(ctx,
		"Figures 20 & 21 — alternative MLP-aware fetch policies (a=flush, b=mlpflush, c=binflush, d=mlpflush-rs, e=binflush-rs)",
		Figure20and21Spec())
}

// PartitioningResult is the Figure 22/23 comparison of the MLP-aware flush
// policy against static partitioning and DCRA, for two- and four-thread
// workloads.
type PartitioningResult struct {
	TwoThread  PolicyComparison
	FourThread PolicyComparison
}

// partitioning are the three contenders of Figures 22 and 23.
var partitioning = []policy.Kind{policy.MLPFlush, policy.Static, policy.DynamicAllocation}

// Figure22and23Specs are the partitioning comparison's grids: the Table II
// and Table III workloads under mlpflush, static and dcra.
func Figure22and23Specs() (twoThread, fourThread campaign.Spec) {
	return specOf("fig22-23-2t", "two_thread", partitioning), specOf("fig22-23-4t", "four_thread", partitioning)
}

// Figure22and23 runs the partitioning comparison.
func (c *Campaigns) Figure22and23(ctx context.Context) (PartitioningResult, error) {
	two, four := Figure22and23Specs()
	var out PartitioningResult
	var err error
	if out.TwoThread, err = c.compare(ctx, "", two); err != nil {
		return out, err
	}
	out.FourThread, err = c.compare(ctx, "", four)
	return out, err
}

// String renders Figures 22 and 23.
func (p PartitioningResult) String() string {
	render := func(title string, pc PolicyComparison) string {
		tbl := Table{
			Title:  title,
			Header: []string{"group", "scheme", "STP", "ANTT"},
		}
		for _, g := range pc.Groups {
			for _, s := range pc.ByGroup[g] {
				tbl.AddRow(g.String(), s.Policy, f3(s.STP), f3(s.ANTT))
			}
		}
		return tbl.String()
	}
	return render("Figures 22 & 23 — MLP-aware flush vs static partitioning vs DCRA (two-thread)", p.TwoThread) +
		"\n" + render("Figures 22 & 23 — MLP-aware flush vs static partitioning vs DCRA (four-thread)", p.FourThread)
}
