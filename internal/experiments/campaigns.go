package experiments

import (
	"context"

	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/policy"
	"smtmlp/internal/store"
)

// Campaigns runs the paper's figure grids as campaigns against one result
// store and renders them from it. A cell is simulated at most once per
// store, by whichever figure needs it first: Figures 11/12 read the cells
// of Figures 9/10, and Figures 20-23 reuse their flush and mlpflush cells.
// campaign.Summarize is the only aggregation, so every figure averages
// with the paper's rules (harmonic-mean STP, arithmetic-mean ANTT).
type Campaigns struct {
	Store *store.Store
	// Instructions and Warmup are the per-thread budget of every cell; zero
	// values take the engine defaults (see campaign.Spec).
	Instructions, Warmup uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Report, when set, receives the summary of every campaign run.
	Report func(campaign.Summary)
}

// specOf names a spec over the paper's workload table and policies; the
// figure constructors add a configuration grid where they sweep one.
func specOf(name, table string, kinds []policy.Kind) campaign.Spec {
	spec := campaign.Spec{Name: name, Workloads: campaign.WorkloadSpec{Tables: []string{table}}}
	for _, k := range kinds {
		spec.Policies = append(spec.Policies, k.String())
	}
	return spec
}

// run executes spec at the receiver's budget into the store and returns the
// budgeted spec, whose fingerprints address the cells it wrote. A canceled
// run still returns the spec: the figure renders over what the store holds.
func (c *Campaigns) run(ctx context.Context, spec campaign.Spec) (campaign.Spec, error) {
	spec.Instructions, spec.Warmup = c.Instructions, c.Warmup
	sum, err := campaign.Run(ctx, c.Store, spec, campaign.Options{Parallelism: c.Parallelism})
	if c.Report != nil {
		c.Report(sum)
	}
	return spec, err
}

// compare runs a policy x workload spec (with its Policies listed) and
// summarizes it per workload class. Each class is a sub-spec listing that class's mixes in expansion
// order; fingerprints ignore tags and class, so the sub-specs read the
// cells the full spec wrote.
func (c *Campaigns) compare(ctx context.Context, title string, spec campaign.Spec) (PolicyComparison, error) {
	spec, runErr := c.run(ctx, spec)
	reqs, fps, err := spec.Requests()
	if err != nil {
		return PolicyComparison{}, err
	}
	pc := PolicyComparison{Title: title, Policies: spec.Policies, ByGroup: make(map[bench.WorkloadClass][]GroupStats)}
	byWorkload := make(map[string]int) // workload name -> index in pc.Workloads
	for i, req := range reqs {
		name := req.Policy.String()
		w, ok := byWorkload[req.Workload.Name()]
		if !ok {
			w = len(pc.Workloads)
			byWorkload[req.Workload.Name()] = w
			pc.Workloads = append(pc.Workloads, WorkloadIPC{Workload: req.Workload, IPC: make(map[string][]float64)})
		}
		if rec, ok := c.Store.Get(fps[i]); ok {
			for _, th := range rec.Result.Threads {
				pc.Workloads[w].IPC[name] = append(pc.Workloads[w].IPC[name], th.IPC)
			}
		}
	}
	for _, class := range []bench.WorkloadClass{bench.ILPWorkload, bench.MLPWorkload, bench.MixedWorkload} {
		sub := spec
		sub.Workloads = campaign.WorkloadSpec{}
		for _, w := range pc.Workloads {
			if w.Workload.Class == class {
				sub.Workloads.Mixes = append(sub.Workloads.Mixes, w.Workload.Benchmarks)
			}
		}
		if len(sub.Workloads.Mixes) == 0 {
			continue
		}
		rows, err := campaign.Summarize(c.Store, sub)
		if err != nil {
			return pc, err
		}
		pc.Groups = append(pc.Groups, class)
		for _, r := range rows {
			pc.ByGroup[class] = append(pc.ByGroup[class], GroupStats{Policy: r.Policy, STP: r.STP, ANTT: r.ANTT})
		}
	}
	return pc, runErr
}

// sweep runs a spec over a configuration grid and summarizes it per
// (configuration point, policy) across all its workloads.
func (c *Campaigns) sweep(ctx context.Context, title string, spec campaign.Spec) (SweepResult, error) {
	spec, runErr := c.run(ctx, spec)
	rows, err := campaign.Summarize(c.Store, spec)
	if err != nil {
		return SweepResult{}, err
	}
	out := SweepResult{Title: title, Points: make(map[string][]SweepPoint)}
	for _, r := range rows {
		if _, ok := out.Points[r.Config]; !ok {
			out.Labels = append(out.Labels, r.Config)
		}
		out.Points[r.Config] = append(out.Points[r.Config],
			SweepPoint{Label: r.Config, Policy: r.Policy, STP: r.STP, ANTT: r.ANTT})
	}
	return out, runErr
}
