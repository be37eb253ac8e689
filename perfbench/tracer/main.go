// Command tracer is the traced half of the perfbench benchmark. It times
// calls into the public entry points of each rix layer from outside the
// program (workload builds, emulator runs, full-detail pipeline runs,
// warm passes, detail windows, cache fills and hits), then runs the
// workload's experiment matrix through runner.Engine three times: with
// a run.Observer that timestamps cell and window events on receipt,
// between two unobserved runs that measure the tracing overhead.
// sampled-repeat's matrix first fills a fresh checkpoint cache, and
// the three re-run against it.
//
// The cache measurements build only with -tags perfbench_cache (see
// cache.go); without the tag the tracer runs every workload with no
// cache.
//
// Every timed call and every observed cell or window becomes a span
// (name, layer, start, end, parent, cell id). Spans stay in memory and
// are written to -spans as JSON when the run ends; perfbench/run.py
// turns them into the per-layer metrics. The matrix's rendered tables
// are written to -tables in the shape of `rixbench -json`, so the traced
// matrix is checked against the same references as the timed one.
//
// Usage (normally invoked by perfbench/run.py):
//
//	go build -tags perfbench_cache . && ./tracer -workload sampled-fig4 -spans spans.json -tables tables.json -scratch dir
//	tracer -plan > perfbench/ref/plan.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rix/internal/emu"
	_ "rix/internal/experiments" // registers the paper's specs
	"rix/internal/pipeline"
	"rix/internal/run"
	"rix/internal/runner"
	"rix/internal/sample"
	"rix/internal/sim"
	"rix/internal/stats"
	"rix/internal/workload"
)

// pipelinePrograms are the programs whose full-detail pipeline speed is
// traced: one per workload class, the detail-fig4 subset.
var pipelinePrograms = []string{"gzip", "crafty", "vortex", "mcf"}

// suites is the matrix every benchmark workload runs: Figure 4.
var suites = []string{"fig4"}

// shape is what the tracer needs to know about a benchmark workload.
type shape struct {
	benches []string // nil = the full paper suite
	jobs    int
	sampled bool
	cached  bool // the matrix re-runs against a filled -ckpt-cache
}

var shapes = map[string]shape{
	"detail-fig4":    {benches: pipelinePrograms, jobs: 1},
	"sampled-fig4":   {jobs: 2, sampled: true},
	"sampled-repeat": {jobs: 2, sampled: true, cached: true},
}

// span is one timed interval. Times are nanoseconds since the tracer
// started; Parent 0 means a root span.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Cell   string           `json:"cell,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span at time at and returns its id.
func (t *tracer) begin(name, layer, cell string, parent int, at time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Cell: cell, Start: t.since(at)})
	return id
}

// end closes span id at time at, attaching attrs.
func (t *tracer) end(id int, at time.Time, attrs map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.since(at)
	s.Attrs = attrs
}

// timed runs fn inside a root span.
func (t *tracer) timed(name, layer, cell string, fn func() (map[string]int64, error)) error {
	id := t.begin(name, layer, cell, 0, time.Now())
	attrs, err := fn()
	t.end(id, time.Now(), attrs)
	if err != nil {
		return fmt.Errorf("%s %s: %w", name, cell, err)
	}
	return nil
}

// recorder turns the matrix's run.Observer events into cell and window
// spans, timestamped on receipt. Cells of one suite run concurrently,
// so it locks around its maps; the tracer locks around the span list.
type recorder struct {
	tr *tracer

	mu      sync.Mutex
	suite   string
	suiteID int
	cells   map[string]int // open cell spans by cell id
	windows map[string]int // open window spans by cell id + window index
	counts  map[string]int64
}

func (r *recorder) startSuite(id string, sid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suite, r.suiteID = id, sid
}

func (r *recorder) Observe(e run.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	cell := r.suite + "/" + e.Workload + "/" + e.Label
	//rix:partial — the benchmark traces cells, windows and cache traffic only
	switch e.Kind {
	case run.CellStarted:
		layer := "pipeline"
		if e.Mode != run.ModeDetail {
			layer = "sample"
		}
		r.cells[cell] = r.tr.begin("cell", layer, cell, r.suiteID, now)
	case run.CellFinished:
		attrs := map[string]int64{"instrs": int64(e.Instrs)}
		if e.Err != "" {
			attrs["failed"] = 1
		}
		if id, ok := r.cells[cell]; ok {
			r.tr.end(id, now, attrs)
			delete(r.cells, cell)
		}
	case run.WindowScheduled:
		r.counts["windows_scheduled"]++
		r.windows[cell+"#"+strconv.Itoa(e.Window)] = r.tr.begin("window", "pipeline", cell, r.cells[cell], now)
	case run.WindowDone, run.WindowDiscarded:
		attrs := map[string]int64{"window": int64(e.Window)}
		if e.Kind == run.WindowDiscarded {
			attrs["discarded"] = 1
			r.counts["windows_discarded"]++
		}
		win := cell + "#" + strconv.Itoa(e.Window)
		if id, ok := r.windows[win]; ok {
			r.tr.end(id, now, attrs)
			delete(r.windows, win)
		}
	case run.CacheHit:
		r.counts["cache_hits"]++
	default:
	}
}

// jsonTable / jsonSuite mirror `rixbench -json` so both outputs compare
// against the same references.
type jsonTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

type jsonSuite struct {
	ID          string      `json:"id"`
	Description string      `json:"description"`
	Tables      []jsonTable `json:"tables"`
}

func toJSON(id, desc string, tables []*stats.Table) jsonSuite {
	out := jsonSuite{ID: id, Description: desc}
	for _, t := range tables {
		out.Tables = append(out.Tables, jsonTable{Title: t.Title, Header: t.Header(), Rows: t.Rows(), Notes: t.Notes()})
	}
	return out
}

// specBenches resolves a spec's workload subset against the engine's
// workload list, in the spec's order (as runner does for its rows).
func specBenches(s *runner.Spec, have []string) []string {
	if s.Benchmarks == nil {
		return have
	}
	avail := map[string]bool{}
	for _, h := range have {
		avail[h] = true
	}
	var out []string
	for _, b := range s.Benchmarks {
		if avail[b] {
			out = append(out, b)
		}
	}
	return out
}

// matrixCell is one (program, configuration) cell of the matrix.
type matrixCell struct {
	bench, label string
	cfg          pipeline.Config
}

// matrixCells lists the matrix's cells in matrix order: every one runs
// a warm pass unless a cache or a shared warm set spares it.
func matrixCells(suites, benches []string) ([]matrixCell, error) {
	var cells []matrixCell
	for _, id := range suites {
		spec, ok := runner.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown suite %q", id)
		}
		for _, b := range specBenches(spec, benches) {
			for _, c := range spec.Configs {
				cfg, err := c.Opt.Config()
				if err != nil {
					return nil, err
				}
				cells = append(cells, matrixCell{bench: b, label: c.Label, cfg: cfg})
			}
		}
	}
	return cells, nil
}

// result is written to -spans.
type result struct {
	Workload string           `json:"workload"`
	Jobs     int              `json:"jobs"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []span           `json:"spans"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := body(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func body(ctx context.Context) error {
	name := flag.String("workload", "", "benchmark workload: detail-fig4, sampled-fig4 or sampled-repeat")
	spansOut := flag.String("spans", "", "write the spans and counts here (JSON)")
	tablesOut := flag.String("tables", "", "write the traced matrix's tables here (rixbench -json shape)")
	scratch := flag.String("scratch", "", "scratch directory for the warm-set caches")
	plan := flag.Bool("plan", false, "print the matrix's cell plan and program lengths (JSON) and exit")
	flag.Parse()

	if *plan {
		return printPlan(ctx)
	}
	sh, ok := shapes[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *spansOut == "" || *tablesOut == "" || *scratch == "" {
		return fmt.Errorf("-spans, -tables and -scratch are required")
	}
	benches := sh.benches
	if benches == nil {
		benches = workload.Names()
	}

	tr := &tracer{t0: time.Now()}
	counts := map[string]int64{}
	if err := traceLayers(ctx, tr, sh, benches, *scratch, counts); err != nil {
		return err
	}

	engine, err := runner.NewEngine(benches)
	if err != nil {
		return err
	}
	engine.Parallel = sh.jobs
	if sh.cached {
		// The researcher's first run fills the cache the re-runs read.
		dir := filepath.Join(*scratch, "matrix-cache")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		useCache(engine, dir)
		if _, err := runMatrix(ctx, tr, engine, nil, "matrix.first", sh.sampled); err != nil {
			return err
		}
	}
	// The traced matrix runs between two untraced ones; the tracing
	// overhead is its wall time minus theirs.
	rec := &recorder{tr: tr, cells: map[string]int{}, windows: map[string]int{}, counts: counts}
	var out []jsonSuite
	for i, r := range []*recorder{nil, rec, nil} {
		span := "matrix.untraced"
		if r != nil {
			span = "suite"
		}
		got, err := runMatrix(ctx, tr, engine, r, span, sh.sampled)
		if err != nil {
			return err
		}
		if i > 0 && !reflect.DeepEqual(got, out) {
			return fmt.Errorf("traced and untraced matrices printed different tables")
		}
		out = got
	}

	if err := writeJSON(*tablesOut, out); err != nil {
		return err
	}
	return writeJSON(*spansOut, result{Workload: *name, Jobs: sh.jobs, Counts: counts, Spans: tr.spans})
}

// runMatrix runs every suite of the matrix once, each inside a span of
// the given name. With rec nil the engine runs unobserved and the span
// belongs to no layer, so it adds nothing to any layer's self time.
func runMatrix(ctx context.Context, tr *tracer, engine *runner.Engine, rec *recorder, name string,
	sampled bool) ([]jsonSuite, error) {
	layer := "untraced"
	engine.Observer = nil
	if rec != nil {
		layer = "runner"
		engine.Observer = rec
	}
	var out []jsonSuite
	for _, id := range suites {
		spec, ok := runner.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown suite %q", id)
		}
		sid := tr.begin(name, layer, id, 0, time.Now())
		if rec != nil {
			rec.startSuite(id, sid)
		}
		var tables []*stats.Table
		var err error
		if sampled {
			s := runner.Sampled(spec, sample.DefaultSampling())
			spec = &s
			var rs *runner.ResultSet
			if rs, err = engine.Gather(ctx, &s); err == nil {
				tables, err = s.Collect(rs)
			}
		} else {
			tables, err = engine.RunSpec(ctx, id)
		}
		tr.end(sid, time.Now(), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, toJSON(spec.ID, spec.Description, tables))
	}
	return out, nil
}

// traceLayers makes the direct, timed calls into each layer.
func traceLayers(ctx context.Context, tr *tracer, sh shape, benches []string, scratch string,
	counts map[string]int64) error {
	built := map[string]workload.Built{}
	for _, b := range benches {
		bm, ok := workload.ByName(b)
		if !ok {
			return fmt.Errorf("unknown workload %q", b)
		}
		err := tr.timed("BuildContext", "workload", b, func() (map[string]int64, error) {
			bw, err := bm.BuildContext(ctx)
			built[b] = bw
			return map[string]int64{"instrs": int64(bw.DynLen)}, err
		})
		if err != nil {
			return err
		}
	}

	for _, b := range benches {
		e := emu.New(built[b].Prog)
		err := tr.timed("Run", "emu", b, func() (map[string]int64, error) {
			err := e.Run(workload.MaxInstrs)
			return map[string]int64{"instrs": int64(e.Count)}, err
		})
		if err != nil {
			return err
		}
	}

	for _, b := range pipelinePrograms {
		bw := built[b]
		for _, preset := range []string{sim.IntNone, sim.IntReverse} {
			cfg, err := sim.Options{Integration: preset}.Config()
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = tr.timed("RunContext", "pipeline", b+"/"+preset, func() (map[string]int64, error) {
				st, err := pipeline.New(cfg, bw.Prog, bw.Source()).RunContext(ctx)
				if err != nil {
					return nil, err
				}
				runtime.ReadMemStats(&after)
				return map[string]int64{
					"retired": int64(st.Retired), "cycles": int64(st.Cycles),
					"mallocs": int64(after.Mallocs - before.Mallocs), "alloc_bytes": int64(after.TotalAlloc - before.TotalAlloc),
				}, nil
			})
			if err != nil {
				return err
			}
		}
	}

	if !sh.sampled {
		return nil
	}
	cells, err := matrixCells(suites, benches)
	if err != nil {
		return err
	}
	sp := sample.DefaultSampling()
	fillDir := filepath.Join(scratch, "fill")
	reps, err := distinctWarmSets(ctx, tr, built, cells, sp, fillDir)
	if err != nil {
		return err
	}
	counts["warm_requests"] = int64(len(cells))
	counts["warm_sets"] = int64(len(reps))
	for _, wc := range reps {
		p := built[wc.bench].Prog
		cell := wc.bench + "/" + wc.label
		var set *sample.WarmSet
		err := tr.timed("PrepareWarm", "sample", cell, func() (map[string]int64, error) {
			var err error
			set, err = sample.PrepareWarm(ctx, p, wc.cfg, sample.Config{Sampling: sp})
			if err != nil {
				return nil, err
			}
			return map[string]int64{"instrs": int64(set.Total), "boundaries": int64(len(set.Boundaries))}, nil
		})
		if err != nil {
			return err
		}
		for _, bd := range set.Boundaries {
			job := sample.WindowJob{Prog: p, Config: wc.cfg, Sampling: sp, Boundary: bd, Feedback: bd.Warm.LISP}
			err := tr.timed("ExecuteWindow", "sample", cell, func() (map[string]int64, error) {
				res, err := sample.ExecuteWindow(ctx, job)
				return map[string]int64{"retired": int64(res.Stats.Retired)}, err
			})
			if err != nil {
				return err
			}
		}
	}
	return timeCacheHits(ctx, tr, built, reps, sp, fillDir, counts)
}

// printPlan writes the matrix's cell plan: per suite, the programs and
// configuration labels it runs, plus every program's dynamic
// instruction count.
func printPlan(ctx context.Context) error {
	type suitePlan struct {
		Benches []string `json:"benches"`
		Labels  []string `json:"labels"`
	}
	plan := struct {
		Suites []string             `json:"suites"`
		Cells  map[string]suitePlan `json:"cells"`
		DynLen map[string]int       `json:"dynlen"`
	}{Cells: map[string]suitePlan{}, DynLen: map[string]int{}}
	names := workload.Names()
	for _, id := range suites {
		spec, ok := runner.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown suite %q", id)
		}
		sp := suitePlan{Benches: specBenches(spec, names)}
		for _, c := range spec.Configs {
			sp.Labels = append(sp.Labels, c.Label)
		}
		plan.Suites = append(plan.Suites, id)
		plan.Cells[id] = sp
	}
	for _, n := range names {
		bm, _ := workload.ByName(n)
		bw, err := bm.BuildContext(ctx)
		if err != nil {
			return err
		}
		plan.DynLen[n] = bw.DynLen
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(plan)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
