//go:build perfbench_cache

// The checkpoint-cache measurements. run.py builds the tracer with
// -tags perfbench_cache only when rixbench defines -ckpt-cache, so the
// tracer still builds, and every workload still traces, once the cache
// is gone; nocache.go is the build without it.

package main

import (
	"context"
	"os"
	"path/filepath"

	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/workload"
)

// useCache points the matrix's engine at a checkpoint cache directory.
func useCache(e *runner.Engine, dir string) { e.CheckpointCache = dir }

// cacheEvent counts the matrix's cache hits.
func cacheEvent(e run.Event, counts map[string]int64) {
	if e.Kind == run.CacheHit {
		counts["cache_hits"]++
	}
}

// cacheCounter counts a PrepareWarm call's cache traffic.
type cacheCounter struct{ hits, writes int64 }

func (c *cacheCounter) config(sp sample.Sampling, dir string) sample.Config {
	return sample.Config{Sampling: sp, CacheDir: dir, Hooks: sample.Hooks{
		CacheHit:     func(string) { c.hits++ },
		CacheWritten: func(string) { c.writes++ },
	}}
}

// distinctWarmSets fills an empty cache in dir with every cell's warm
// set, in matrix order, timing each PrepareWarm. A cell whose call
// writes to the cache computed a warm set no earlier cell shares, so
// those cells are the distinct warm sets, as the cache's own key
// tells them apart.
func distinctWarmSets(ctx context.Context, tr *tracer, built map[string]workload.Built, cells []matrixCell,
	sp sample.Sampling, dir string) ([]matrixCell, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var reps []matrixCell
	for _, wc := range cells {
		var c cacheCounter
		err := tr.timed("PrepareWarm.fill", "sample", wc.bench+"/"+wc.label, func() (map[string]int64, error) {
			_, err := sample.PrepareWarm(ctx, built[wc.bench].Prog, wc.cfg, c.config(sp, dir))
			return map[string]int64{"hits": c.hits, "writes": c.writes}, err
		})
		if err != nil {
			return nil, err
		}
		if c.writes > 0 {
			reps = append(reps, wc)
		}
	}
	return reps, nil
}

// timeCacheHits reads each distinct warm set back from the cache that
// distinctWarmSets filled, records the cache's size and removes it.
func timeCacheHits(ctx context.Context, tr *tracer, built map[string]workload.Built, reps []matrixCell,
	sp sample.Sampling, dir string, counts map[string]int64) error {
	for _, wc := range reps {
		var c cacheCounter
		err := tr.timed("PrepareWarm.hit", "sample", wc.bench+"/"+wc.label, func() (map[string]int64, error) {
			_, err := sample.PrepareWarm(ctx, built[wc.bench].Prog, wc.cfg, c.config(sp, dir))
			return map[string]int64{"hits": c.hits, "writes": c.writes}, err
		})
		if err != nil {
			return err
		}
	}
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	counts["cache_bytes"] = n
	return os.RemoveAll(dir)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
