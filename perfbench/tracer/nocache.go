//go:build !perfbench_cache

// The tracer without the checkpoint cache: rixbench no longer defines
// -ckpt-cache, so there is nothing to fill or hit, and no two cells
// share a warm set.

package main

import (
	"context"

	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/workload"
)

func useCache(*runner.Engine, string) {}

func cacheEvent(run.Event, map[string]int64) {}

// distinctWarmSets returns every cell: each computes its own warm set.
func distinctWarmSets(_ context.Context, _ *tracer, _ map[string]workload.Built, cells []matrixCell,
	_ sample.Sampling, _ string) ([]matrixCell, error) {
	return cells, nil
}

func timeCacheHits(context.Context, *tracer, map[string]workload.Built, []matrixCell, sample.Sampling, string,
	map[string]int64) error {
	return nil
}
