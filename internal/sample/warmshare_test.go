package sample

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rix/internal/core"
	"rix/internal/pipeline"
	"rix/internal/workload"
)

// TestSharedWarmBuildCancelIsolated: two runs share one Scheduler and
// so one warm-set entry, under different contexts. Cancelling the run
// that is building the set, mid-warm-pass, must end only that run: the
// run waiting on the entry builds the set itself and returns the same
// estimate as a run with no sharing, and the table is empty once both
// have returned.
func TestSharedWarmBuildCancelIsolated(t *testing.T) {
	bench, _ := workload.ByName("gzip")
	bw, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := bw.Prog
	// The +reverse machine, assembled directly (this internal test
	// cannot import the sim facade: sim depends on sample).
	cfg := pipeline.DefaultConfig()
	cfg.Policy = core.Policy{Enable: true, GeneralReuse: true, OpcodeIndex: true, Reverse: true, UseLISP: true}
	sp := Sampling{Interval: 4000, Window: 300, Warmup: 150}
	bg := context.Background()

	want, err := Run(bg, p, bw.DynLen, cfg, Config{Sampling: sp, Windows: 2})
	if err != nil {
		t.Fatal(err)
	}

	sched := NewScheduler(2)
	defer sched.Close()
	key := warmKey(p, cfg, sp)
	holders := func() int {
		sched.warm.mu.Lock()
		defer sched.warm.mu.Unlock()
		if e := sched.warm.m[key]; e != nil {
			return e.holders
		}
		return 0
	}

	// Run A builds. At its first progress report past the program entry
	// it lets run B start, waits until B holds A's entry, and cancels
	// its own context; the warm pass notices at its next poll.
	actx, cancelA := context.WithCancel(bg)
	defer cancelA()
	startB := make(chan struct{})
	var once sync.Once
	var joined bool
	scA := Config{Sampling: sp, Scheduler: sched, Hooks: Hooks{Progress: func(n uint64) {
		if n == 0 {
			return
		}
		once.Do(func() {
			close(startB)
			deadline := time.Now().Add(10 * time.Second)
			for !joined && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				joined = holders() == 2
			}
			cancelA()
		})
	}}}
	var bBuilt bool
	scB := Config{Sampling: sp, Scheduler: sched, Hooks: Hooks{Progress: func(uint64) { bBuilt = true }}}

	var errA, errB error
	var got *Estimate
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = Run(actx, p, bw.DynLen, cfg, scA)
	}()
	go func() {
		defer wg.Done()
		<-startB
		got, errB = Run(bg, p, bw.DynLen, cfg, scB)
	}()
	wg.Wait()

	if !joined {
		t.Fatal("the second run never waited on the first run's warm-set entry")
	}
	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("building run: got %v, want context.Canceled", errA)
	}
	if errB != nil {
		t.Fatalf("waiting run inherited the builder's failure: %v", errB)
	}
	if !bBuilt {
		t.Error("waiting run never built the set after the builder was cancelled")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("waiting run's estimate diverges from an unshared run's")
	}
	sched.warm.mu.Lock()
	left := len(sched.warm.m)
	sched.warm.mu.Unlock()
	if left != 0 {
		t.Errorf("%d warm-set entries left after every run returned", left)
	}
}
