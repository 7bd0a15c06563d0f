package experiments

import (
	"context"
	"fmt"

	"smtmlp/internal/campaign"
	"smtmlp/internal/policy"
)

// SweepPoint aggregates all two-thread workloads for one configuration point
// and one policy.
type SweepPoint struct {
	Label  string // e.g. "mem=400" or "rob=512"
	Policy string
	STP    float64
	ANTT   float64
}

// SweepResult is the Figure 15/16 (memory latency) or Figure 17/18 (window
// size) experiment.
type SweepResult struct {
	Title  string
	Labels []string
	Points map[string][]SweepPoint // label -> per-policy stats
}

// Figure15and16Spec is the main-memory latency sweep's grid: all Table II
// workloads under the six fetch policies at 200-800 cycles.
func Figure15and16Spec() campaign.Spec {
	spec := specOf("fig15-16", "two_thread", policy.Paper())
	spec.Grid.MemLatencies = []int64{200, 400, 600, 800}
	return spec
}

// Figure15and16 reproduces the main-memory latency sweep: STP (Figure 15)
// and ANTT (Figure 16) across 200-800 cycles, all two-thread workloads.
func (c *Campaigns) Figure15and16(ctx context.Context) (SweepResult, error) {
	return c.sweep(ctx, "Figures 15 & 16 — STP and ANTT vs main memory access latency (two-thread workloads)",
		Figure15and16Spec())
}

// Figure17and18Spec is the window size sweep's grid: ROB 128-1024 with the
// LSQ, issue queues and rename registers scaled proportionally.
func Figure17and18Spec() campaign.Spec {
	spec := specOf("fig17-18", "two_thread", policy.Paper())
	spec.Grid.ROBSizes = []int{128, 256, 512, 1024}
	return spec
}

// Figure17and18 reproduces the window size sweep: STP (Figure 17) and ANTT
// (Figure 18), all two-thread workloads.
func (c *Campaigns) Figure17and18(ctx context.Context) (SweepResult, error) {
	return c.sweep(ctx, "Figures 17 & 18 — STP and ANTT vs processor window size (two-thread workloads)",
		Figure17and18Spec())
}

// String renders the sweep as two tables (STP, then ANTT), policies as
// columns and sweep points as rows, with relative-to-ICOUNT columns as the
// paper's figures plot.
func (s SweepResult) String() string {
	var policies []string
	if len(s.Labels) > 0 {
		for _, p := range s.Points[s.Labels[0]] {
			policies = append(policies, p.Policy)
		}
	}
	render := func(metric string, get func(SweepPoint) float64, lowerBetter bool) string {
		tbl := Table{
			Title:  fmt.Sprintf("%s — %s", s.Title, metric),
			Header: append([]string{"point"}, policies...),
		}
		for _, l := range s.Labels {
			row := []string{l}
			var icount float64
			for _, p := range s.Points[l] {
				if p.Policy == "icount" {
					icount = get(p)
				}
			}
			for _, p := range s.Points[l] {
				v := get(p)
				rel := ""
				if icount > 0 && p.Policy != "icount" {
					rel = fmt.Sprintf(" (%+.1f%%)", 100*(v/icount-1))
				}
				row = append(row, f3(v)+rel)
			}
			tbl.AddRow(row...)
		}
		if lowerBetter {
			tbl.Notes = append(tbl.Notes, "lower is better; percentages are relative to ICOUNT at the same point")
		} else {
			tbl.Notes = append(tbl.Notes, "higher is better; percentages are relative to ICOUNT at the same point")
		}
		return tbl.String()
	}
	return render("STP", func(p SweepPoint) float64 { return p.STP }, false) +
		"\n" + render("ANTT", func(p SweepPoint) float64 { return p.ANTT }, true)
}
