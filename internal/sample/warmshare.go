package sample

import (
	"context"
	"sync"

	"rix/internal/pipeline"
	"rix/internal/prog"
)

// This file is the scheduler's warm-set table. A matrix evaluates each
// program under many machine configurations, but the warm pass depends
// only on the warm key (warmKey: program, window layout, drain pad and
// warm-relevant geometry), so many cells need the same warm set. Runs
// sharing a Scheduler look their set up here: the first run to ask for
// a key builds it (prepareWarm: cache load, sharded or sequential pass,
// cache save) and every run asking while any holder is still running
// gets the same read-only *WarmSet. An entry is dropped when its last
// holder releases it, so the sets alive are bounded by the runs in
// flight; a later run for a dropped key builds again, which with a
// cache directory is a disk hit.

// warmTable is a reference-counted singleflight over warm sets. The
// zero value is ready to use.
type warmTable struct {
	mu sync.Mutex
	m  map[string]*warmEntry
}

// warmEntry is one key's set, shared by its holders.
type warmEntry struct {
	ready   chan struct{} // closed once the build has settled
	set     *WarmSet      // nil if the build failed
	holders int           // runs holding the set or waiting for it
}

// acquireWarm resolves a two-phase run's warm set and returns the
// release to call once the run's window phase is done with it. A run
// on a shared Scheduler goes through the scheduler's table; a run with
// an injected set, an Executor, or a private pool prepares its own.
func acquireWarm(ctx context.Context, p *prog.Program, cfg pipeline.Config, sc Config) (*WarmSet, func(), error) {
	build := func() (*WarmSet, error) { return prepareWarm(ctx, p, cfg, sc) }
	if sc.Scheduler == nil || sc.Executor != nil || sc.Warm != nil {
		set, err := build()
		return set, func() {}, err
	}
	return sc.Scheduler.warm.acquire(ctx, warmKey(p, cfg, sc.Sampling), build)
}

// acquire returns the set for key, calling build when no live entry
// holds it. A failed or cancelled build is the builder's own: its entry
// is removed at once, and each run waiting on it retries — the first to
// retry builds the set itself with its own context.
func (t *warmTable) acquire(ctx context.Context, key string, build func() (*WarmSet, error)) (*WarmSet, func(), error) {
	for {
		t.mu.Lock()
		e, ok := t.m[key]
		if ok {
			e.holders++
		} else {
			e = &warmEntry{ready: make(chan struct{}), holders: 1}
			if t.m == nil {
				t.m = make(map[string]*warmEntry)
			}
			t.m[key] = e
		}
		t.mu.Unlock()
		release := func() { t.release(key, e) }

		if !ok {
			set, err := build()
			t.mu.Lock()
			if err == nil {
				e.set = set
			} else {
				// Arrivals from now on start a fresh entry; the waiters
				// see no set and retry.
				delete(t.m, key)
			}
			close(e.ready)
			t.mu.Unlock()
			if err != nil {
				return nil, nil, err
			}
			return set, release, nil
		}

		select {
		case <-e.ready:
		case <-ctx.Done():
			release()
			return nil, nil, ctx.Err()
		}
		if e.set != nil {
			return e.set, release, nil
		}
		release()
	}
}

// release drops one holder, and the entry with its last one.
func (t *warmTable) release(key string, e *warmEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.holders--
	if e.holders == 0 && t.m[key] == e {
		delete(t.m, key)
	}
}
