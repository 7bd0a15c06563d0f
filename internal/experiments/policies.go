package experiments

import (
	"context"
	"fmt"

	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/policy"
)

// GroupStats aggregates STP and ANTT over one workload class for one policy,
// using the paper's averaging rules (harmonic for STP, arithmetic for ANTT).
type GroupStats struct {
	Policy string
	STP    float64
	ANTT   float64
}

// PolicyComparison is the Figure 9/10 (two-thread) or Figure 13/14
// (four-thread) experiment: every workload under every fetch policy.
type PolicyComparison struct {
	Title     string
	Policies  []string
	Groups    []bench.WorkloadClass
	ByGroup   map[bench.WorkloadClass][]GroupStats
	Workloads []WorkloadIPC // every workload, in table order, for Figures 11/12
}

// WorkloadIPC is one workload's per-thread IPC under each policy of a
// comparison, keyed by policy name (absent where the store holds no result).
type WorkloadIPC struct {
	Workload bench.Workload
	IPC      map[string][]float64
}

// Figure9and10Spec is the two-thread policy comparison's grid: the Table II
// workloads under the six fetch policies.
func Figure9and10Spec() campaign.Spec {
	return specOf("fig9-10", "two_thread", policy.Paper())
}

// Figure9and10 reproduces the two-thread policy comparison: STP (Figure 9)
// and ANTT (Figure 10) for ILP-, MLP- and mixed-intensive workload groups
// under the six fetch policies.
func (c *Campaigns) Figure9and10(ctx context.Context) (PolicyComparison, error) {
	return c.compare(ctx, "Figures 9 & 10 — STP and ANTT, two-thread workloads", Figure9and10Spec())
}

// Figure13and14Spec is the four-thread policy comparison's grid: the
// Table III workloads under the six fetch policies.
func Figure13and14Spec() campaign.Spec {
	return specOf("fig13-14", "four_thread", policy.Paper())
}

// Figure13and14 reproduces the four-thread policy comparison (Figures 13
// and 14). The paper reports one average over all 30 workloads; the class
// grouping (all-ILP / all-MLP / mixed) is also provided.
func (c *Campaigns) Figure13and14(ctx context.Context) (PolicyComparison, error) {
	return c.compare(ctx, "Figures 13 & 14 — STP and ANTT, four-thread workloads", Figure13and14Spec())
}

// String renders the group-averaged STP and ANTT tables.
func (pc PolicyComparison) String() string {
	tbl := Table{
		Title:  pc.Title,
		Header: []string{"group", "metric"},
	}
	tbl.Header = append(tbl.Header, pc.Policies...)
	for _, g := range pc.Groups {
		stp := []string{g.String(), "STP"}
		antt := []string{g.String(), "ANTT"}
		for _, s := range pc.ByGroup[g] {
			stp = append(stp, f3(s.STP))
			antt = append(antt, f3(s.ANTT))
		}
		tbl.AddRow(stp...)
		tbl.AddRow(antt...)
	}
	tbl.Notes = append(tbl.Notes,
		"STP averaged with the harmonic mean, ANTT with the arithmetic mean (John 2006)",
		"STP higher is better; ANTT lower is better")
	return tbl.String()
}

// GroupPolicy returns the aggregated stats for one class and policy name.
func (pc PolicyComparison) GroupPolicy(class bench.WorkloadClass, name string) (GroupStats, bool) {
	for _, s := range pc.ByGroup[class] {
		if s.Policy == name {
			return s, true
		}
	}
	return GroupStats{}, false
}

// IPCStacks renders Figures 11 and 12: per-thread IPC under every policy for
// the workloads of one class (MLP-intensive for Figure 11, mixed for
// Figure 12, where thread 0 is the MLP-intensive thread).
func (pc PolicyComparison) IPCStacks(class bench.WorkloadClass) string {
	tbl := Table{
		Title:  fmt.Sprintf("Figures 11 & 12 — per-thread IPC, %s two-thread workloads", class),
		Header: []string{"workload", "thread"},
	}
	tbl.Header = append(tbl.Header, pc.Policies...)
	for _, w := range pc.Workloads {
		if w.Workload.Class != class {
			continue
		}
		for t, b := range w.Workload.Benchmarks {
			row := []string{w.Workload.Name(), fmt.Sprintf("%d:%s", t, b)}
			for _, p := range pc.Policies {
				if ipc := w.IPC[p]; t < len(ipc) {
					row = append(row, f3(ipc[t]))
				} else {
					row = append(row, "-")
				}
			}
			tbl.AddRow(row...)
		}
	}
	return tbl.String()
}
