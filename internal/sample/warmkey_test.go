package sample_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	_ "rix/internal/experiments" // registers the paper's specs
	"rix/internal/runner"
	"rix/internal/sample"
)

// TestWarmKeySufficient: the warm key must cover everything the warm
// pass reads. Over the sampled configurations of every registered spec
// on one program, any two machine configurations with the same warm key
// must produce identical warm sets. The on-disk cache and the
// scheduler's in-memory sharing both hand one configuration's set to
// another on nothing but this key.
func TestWarmKeySufficient(t *testing.T) {
	ctx := context.Background()
	bw := buildBench(t, "gzip")
	sp := sample.DefaultSampling()

	type first struct {
		label string
		set   *sample.WarmSet
	}
	byKey := make(map[string]*first)
	seen := make(map[string]bool) // configurations already checked
	shared := 0
	for _, s := range runner.Specs() {
		sampled := runner.Sampled(s, sp)
		for _, c := range sampled.Configs {
			cfg, err := c.Opt.Config()
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%#v", cfg)
			if seen[id] {
				continue
			}
			seen[id] = true
			label := s.ID + "/" + c.Label
			set, err := sample.PrepareWarm(ctx, bw.Prog, cfg, sample.Config{Sampling: *c.Opt.Sampling})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			key := sample.WarmKey(bw.Prog, cfg, *c.Opt.Sampling)
			f, ok := byKey[key]
			if !ok {
				byKey[key] = &first{label: label, set: set}
				continue
			}
			shared++
			if !reflect.DeepEqual(set, f.set) {
				t.Errorf("%s and %s share a warm key but build different warm sets", label, f.label)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two distinct configurations share a warm key: the property was never exercised")
	}
	t.Logf("%d distinct configurations, %d warm keys", len(seen), len(byKey))
}
