package goldeneye

import (
	"context"
	"testing"

	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/zoo"
)

// A runner keeps a clean-prefix cache only when a pool sample recurs among
// the indices it executes, and then fills it during set-up for exactly
// those samples. A fleet-shaped shard (16 injections over 32 samples),
// and any weight-target campaign, keeps the full pass.
func TestPrefixCacheWhenSamplesRecur(t *testing.T) {
	model, ds, err := zoo.Pretrained("resnet_s")
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	sim := Wrap(model, ds.ValX.Slice(0, 1))
	pool, err := NewEvalPool(ds.ValX.Slice(0, 32), ds.ValY[:32], 0)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Format:     numfmt.BFPe5m5(),
		Assignment: &FormatAssignment{Default: RoleFormats{Activations: numfmt.BFPe5m5()}},
		Site:       inject.SiteValue,
		Target:     inject.TargetNeuron,
		Layer:      20,
		Injections: 32,
		Seed:       1,
		Pool:       pool,
		BatchSize:  4,
		ShardIndex: 1,
		ShardCount: 2,
	}
	runner := func(edit func(*CampaignConfig)) *campaignRunner {
		t.Helper()
		cfg := base
		edit(&cfg)
		r, err := sim.newRunner(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.close)
		return r
	}

	if r := runner(func(*CampaignConfig) {}); r.reuse != nil {
		t.Fatal("a shard that never revisits a sample built a prefix cache")
	}
	if r := runner(func(c *CampaignConfig) { c.Injections, c.Target, c.BatchSize = 96, inject.TargetWeight, 1 }); r.reuse != nil {
		t.Fatal("a weight-target campaign built a prefix cache")
	}
	r := runner(func(c *CampaignConfig) { c.Injections = 96 })
	if r.reuse == nil {
		t.Fatal("a shard that revisits every sample it owns has no prefix cache")
	}
	for s, e := range r.reuse.entry {
		if owned := s%2 == 1; owned != (e >= 0) {
			t.Fatalf("sample %d: cache row %d, but the shard owns it: %t", s, e, owned)
		}
		if e >= 0 && !r.reuse.have[e] {
			t.Fatalf("sample %d was not cached during set-up", s)
		}
	}
}
