#!/usr/bin/env python3
"""perfbench: the rix benchmark.

Builds rixbench from the checkout it is run in, drives it on one of three
closed-loop workloads (one rixbench process at a time), checks every
figure it prints against a reference, and prints one JSON result line.

    python3 perfbench/run.py --workload detail-fig4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sampled-fig4 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics; --trace 1 runs perfbench/tracer
(timed calls into each layer, then the workload's matrix under a
timestamping observer between two unobserved runs of it) and reports the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave perfbench/ as committed
import score  # noqa: E402

# Every workload runs Figure 4: rixbench -suite fig4. nominal_s is one
# round's wall time at the commit that defined the benchmark (2-core Xeon
# VM); a run makes round(--seconds / nominal_s) rounds, at least one, so
# the round count does not depend on the speed of the code under test.
# sampled-repeat's rounds are re-runs, spread over FILLS set-up runs that
# each fill a fresh cache; its nominal_s is a re-run plus its share of
# the fills.
WORKLOADS = {
    "detail-fig4": {"args": ["-bench", ",".join(score.FIG4_PROGRAMS), "-j", "1"],
                    "programs": score.FIG4_PROGRAMS, "sampled": False, "cached": False, "nominal_s": 11.0},
    "sampled-fig4": {"args": ["-sample", "default", "-j", "2"],
                     "programs": None, "sampled": True, "cached": False, "nominal_s": 4.7},
    "sampled-repeat": {"args": ["-sample", "default", "-j", "2"],
                       "programs": None, "sampled": True, "cached": True, "nominal_s": 7.5},
}

# A run must end within 180 s of its start once the binaries are built.
RUN_BUDGET_S = 170.0

# Set-up probes per run: rixbench started and killed at its first cell,
# so setup_s is a median over many cheap samples.
SETUP_PROBES = 9

# Cache-filling first runs per sampled-repeat run; their median is part
# of setup_s.
FILLS = 3

REQUIRED = ["go.mod", "cmd/rixbench/main.go", "testdata/golden/bench_subset.json",
            "perfbench/tracer/go.mod", "perfbench/ref/plan.json",
            "perfbench/ref/sampled_fig4.json", "perfbench/ref/selftest_fig4.json"]


class Setup(Exception):
    """A failure before any measurement: no result line is printed."""


def load_json(root, rel):
    with open(os.path.join(root, rel)) as f:
        return json.load(f)


def run_self_test(root):
    fx = load_json(root, "perfbench/ref/selftest_fig4.json")
    fails = score.self_test(fx["detail"], fx["sampled"], load_json(root, "perfbench/ref/plan.json"))
    if fails:
        raise Setup("metric self-test failed:\n  " + "\n  ".join(fails))


def go_env(build):
    """Environment for the go tool: caches and home inside the checkout,
    no network, no toolchain switching."""
    env = dict(os.environ)
    home = os.path.join(build, "home")
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "HOME": home, "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local", "GOWORK": "off", "GOPROXY": "off", "GOFLAGS": "-buildvcs=false",
        "GOENV": "off", "GOTELEMETRY": "off",
    })
    return env


def run_env():
    """Environment for rixbench and the tracer: Go runtime defaults, so
    GOMAXPROCS is the CPU count and the collector runs untuned."""
    env = dict(os.environ)
    for k in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"):
        env.pop(k, None)
    return env


def go_build(argv, cwd, env):
    p = subprocess.run(["go", "build"] + argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=850)
    if p.returncode != 0:
        raise Setup("go build %s failed:\n%s" % (" ".join(argv), p.stdout.decode(errors="replace")))


def build(root, build_dir, tracer):
    """Builds rixbench, the GOMAXPROCS probe and, when tracing, the
    tracer. The tracer's cache measurements are compiled in only if this
    rixbench defines -ckpt-cache."""
    env = go_env(build_dir)
    os.makedirs(os.path.join(build_dir, "home"), exist_ok=True)
    bins = os.path.join(build_dir, "bin")
    tdir = os.path.join(root, "perfbench", "tracer")
    go_build(["-o", os.path.join(bins, "rixbench"), "./cmd/rixbench"], root, env)
    go_build(["-o", os.path.join(bins, "gomaxprocs"), "./gomaxprocs"], tdir, env)
    if tracer:
        tags = ["-tags", "perfbench_cache"] if has_flag(os.path.join(bins, "rixbench"), "ckpt-cache") else []
        go_build(tags + ["-o", os.path.join(bins, "tracer"), "."], tdir, env)
    return bins


def has_flag(rixbench, flag):
    p = subprocess.run([rixbench, "-h"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=30)
    return ("-" + flag + " ") in p.stdout.decode(errors="replace")


def steal_s():
    """Host-stolen CPU seconds so far, summed over CPUs (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def fsync_tree(top):
    """Flushes every file under top to disk, so its write-back does not
    overlap a timed round."""
    for d, _, files in os.walk(top):
        for name in files:
            fd = os.open(os.path.join(d, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


def run_proc(argv, out_path, deadline, cwd, stop_at=None):
    """Runs one child to completion, timestamping its stderr lines on
    receipt. Returns wall and rusage figures, the lines, and the parsed
    stdout JSON (None when the child failed or printed none). When
    stop_at(line) holds for a stderr line, the child is killed there."""
    steal0 = steal_s()
    t0 = time.monotonic()
    with open(out_path, "wb") as out:
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=run_env(), cwd=cwd)
    timer = threading.Timer(deadline.left(), p.kill)
    timer.start()
    lines = []
    try:
        for raw in p.stderr:
            lines.append((time.monotonic() - t0, raw.decode(errors="replace").rstrip("\n")))
            if stop_at is not None and stop_at(lines[-1][1]):
                p.kill()
                stop_at = None
    except BaseException:
        p.kill()
        raise
    finally:
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.monotonic() - t0
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stderr.close()
    output = None
    if p.returncode == 0:
        try:
            with open(out_path) as f:
                output = json.load(f)
        except ValueError:
            output = None
    return {"rc": p.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "steal_s": steal_s() - steal0,
            "lines": lines, "output": output}


class Bench:
    def __init__(self, root, name, seed, bins):
        self.root, self.name = root, name
        self.w = WORKLOADS[name]
        self.bins = bins
        self.plan = load_json(root, "perfbench/ref/plan.json")
        # The simulator is deterministic and its inputs are the paper's
        # fixed programs, so the seed selects nothing: it only names the
        # run's work directory.
        self.cells = score.expected_cells(self.plan, "fig4", self.w["programs"])
        golden = next(s for s in load_json(root, "testdata/golden/bench_subset.json") if s["id"] == "fig4")
        sampled = load_json(root, "perfbench/ref/sampled_fig4.json")[0]
        self.ref, self.other_fig4 = (sampled, golden) if self.w["sampled"] else (golden, sampled)
        dyn = self.plan["dynlen"]
        self.covered = sum(dyn[p] for p, _ in self.cells)
        self.work = os.path.join(root, ".bench_build", "work", "%s-%d" % (name, seed))
        os.makedirs(self.work, exist_ok=True)
        self.cache = os.path.join(self.work, "ckpt-cache")
        self.scratch = os.path.join(self.work, "tracer-scratch")  # the tracer's caches
        self.procs = []  # every rixbench process, scored
        self.probes = []
        self.fills = []
        self.failures = []

    def argv(self, use_cache):
        a = [os.path.join(self.bins, "rixbench"), "-v", "-json", "-suite", "fig4"]
        a += self.w["args"]
        if use_cache:
            a += ["-ckpt-cache", self.cache]
        return a

    def rixbench(self, use_cache, deadline, tag):
        r = run_proc(self.argv(use_cache), os.path.join(self.work, tag + ".json"), deadline, self.root)
        events = score.parse_events(r["lines"])
        starts = [t for t, k, _, _ in events if k == "start"]
        r["setup_s"] = starts[0] if starts else r["wall_s"]
        att, ok, why = score.score_cells(events, r["output"], self.ref, self.cells)
        r["attempted"], r["ok"] = att, ok
        if r["rc"] != 0:
            why.insert(0, "%s exited %d: %s" % (tag, r["rc"], r["lines"][-1][1] if r["lines"] else ""))
        self.failures += why
        self.procs.append(r)
        return r

    def measure(self, rounds, deadline):
        """Set-up, then the timed rounds. Returns the timed rounds and
        setup_s."""
        use_cache = False
        fill_at = set()
        if self.w["cached"]:
            # -ckpt-cache is passed only if this rixbench defines it;
            # otherwise the workload is a plain re-run.
            use_cache = has_flag(os.path.join(self.bins, "rixbench"), "ckpt-cache")
            fills = min(FILLS, rounds)
            fill_at = {i * rounds // fills for i in range(fills)}
        timed = []
        for i in range(rounds):
            if i in fill_at:
                # Set-up: the researcher's first run, into a fresh cache
                # directory, leaves the state the timed re-runs start
                # from. Its writes are flushed before they are timed.
                shutil.rmtree(self.cache, ignore_errors=True)
                self.fills.append(self.rixbench(use_cache, deadline, "fill%d" % i)["wall_s"])
                fsync_tree(self.cache)
            timed.append(self.rixbench(use_cache, deadline, "round%d" % i))
        self.probes = [self.probe_setup(use_cache, deadline, i) for i in range(SETUP_PROBES)]
        first_cell = score.median(self.probes + [r["setup_s"] for r in timed])
        return timed, (score.median(self.fills) if self.fills else 0.0) + first_cell

    def probe_setup(self, use_cache, deadline, i):
        """Seconds from starting rixbench to its first cell's start event."""
        r = run_proc(self.argv(use_cache), os.path.join(self.work, "probe%d.json" % i), deadline, self.root,
                     stop_at=lambda line: bool(score.parse_events([(0, line)])))
        starts = [t for t, k, _, _ in score.parse_events(r["lines"]) if k == "start"]
        if not starts:
            self.failures.append("set-up probe %d saw no cell start (exit %d)" % (i, r["rc"]))
            return r["wall_s"]
        return starts[0]

    def result_counts(self):
        attempted = sum(p["attempted"] for p in self.procs)
        ok = sum(p["ok"] for p in self.procs)
        outs = [score.canonical(p["output"]) for p in self.procs if p["output"] is not None]
        if len(set(outs)) > 1:
            self.failures.append("rixbench printed different figures in different rounds")
        return attempted, ok

    def end_to_end(self, timed, setup, attempted, ok):
        wall = score.median([r["wall_s"] for r in timed])
        m = {
            "wall_s": (wall, "s"),
            "cpu_s": (score.median([r["cpu_s"] for r in timed]), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (score.median([r["rss_mb"] for r in timed]), "MB"),
            "minstr_per_s": (self.covered / wall / 1e6, "Minstr/s"),
            "ok_frac": (ok / attempted if attempted else 0.0, "ratio"),
        }
        own = next((s for s in (timed[0]["output"] or []) if s["id"] == self.ref["id"]), None)
        if own is None:
            self.failures.append("no fig4 output to measure accuracy on")
            acc = dict.fromkeys(["ipc_err_pct", "rate_err_pts", "speedup_err_pts", "paper_gap_pts"], 0.0)
        else:
            acc = score.accuracy(own, self.other_fig4, own_is_detail=not self.w["sampled"])
        m["ipc_err_pct"] = (acc["ipc_err_pct"], "%")
        m["rate_err_pts"] = (acc["rate_err_pts"], "pts")
        m["speedup_err_pts"] = (acc["speedup_err_pts"], "pts")
        m["paper_gap_pts"] = (acc["paper_gap_pts"], "pts")
        return m

    def traced(self, deadline):
        """Runs the tracer on this workload and scores its matrix.
        Returns the per-layer metrics and the tracer process's figures."""
        spans = os.path.join(self.work, "spans.json")
        tables = os.path.join(self.work, "traced-tables.json")
        argv = [os.path.join(self.bins, "tracer"), "-workload", self.name,
                "-spans", spans, "-tables", tables, "-scratch", self.scratch]
        r = run_proc(argv, os.path.join(self.work, "tracer.out"), deadline, self.root)
        if r["rc"] != 0:
            raise Setup("tracer exited %d: %s" % (r["rc"], "\n".join(t for _, t in r["lines"][-5:])))
        with open(spans) as f:
            trace = json.load(f)
        with open(tables) as f:
            output = json.load(f)
        # The tracer's cell spans stand in for rixbench's -v lines.
        events = []
        for s in trace["spans"]:
            if s["name"] == "cell":
                _, prog, label = s["cell"].split("/", 2)
                kind = "FAIL" if (s.get("attrs") or {}).get("failed") else "done"
                events.append((s["end_ns"] / 1e9, kind, prog, label))
        att, ok, why = score.score_cells(events, output, self.ref, self.cells)
        self.failures += ["traced matrix: " + w for w in why]
        # A warm set the fill wrote must be read back from the cache.
        for s in trace["spans"]:
            if s["name"] == "PrepareWarm.hit" and (s["attrs"]["hits"] == 0 or s["attrs"]["writes"] != 0):
                self.failures.append("cache re-read of %s missed" % s["cell"])
        self.procs.append({"attempted": att, "ok": ok, "output": output})
        return score.layer_metrics(trace), r


def fmt_metrics(m):
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the metric code and exit")
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_proc kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    try:
        missing = [r for r in REQUIRED if not os.path.exists(os.path.join(root, r))]
        if missing:
            raise Setup("run from the root of a rix checkout; missing: " + ", ".join(missing))
        run_self_test(root)
        if args.self_test:
            print("self-test ok")
            return 0
        if not args.workload:
            raise Setup("--workload is required")
        build_dir = os.path.join(root, ".bench_build")
        bins = build(root, build_dir, tracer=bool(args.trace))
    except (Setup, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    deadline = Deadline(RUN_BUDGET_S)
    b = Bench(root, args.workload, args.seed, bins)
    load0 = os.getloadavg()
    steal0 = steal_s()
    try:
        if args.trace:
            metrics, tracer_proc = b.traced(deadline)
            timed = [tracer_proc]
        else:
            rounds = max(1, int(round(args.seconds / b.w["nominal_s"])))
            timed, setup = b.measure(rounds, deadline)
    except Setup as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        for d in (b.cache, b.scratch):  # about 110 MB each
            shutil.rmtree(d, ignore_errors=True)
    attempted, ok = b.result_counts()
    if not args.trace:
        metrics = b.end_to_end(timed, setup, attempted, ok)

    gomaxprocs = subprocess.run([os.path.join(bins, "gomaxprocs")], stdout=subprocess.PIPE, env=run_env(),
                                timeout=30).stdout.decode().strip()
    host = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "steal_s": steal_s() - steal0, "loadavg_before": load0, "loadavg_after": os.getloadavg(),
        "cpu_over_wall": sum(r["cpu_s"] for r in timed) / sum(r["wall_s"] for r in timed),
        "nproc": len(os.sched_getaffinity(0)), "gomaxprocs": int(gomaxprocs) if gomaxprocs.isdigit() else None,
        "rounds": [{k: r.get(k) for k in ("wall_s", "cpu_s", "rss_mb", "setup_s", "steal_s", "rc")} for r in timed],
        "setup_fills_s": b.fills, "setup_probes_s": b.probes,
        "failures": b.failures[:50],
    }
    with open(os.path.join(b.work, "host.json"), "w") as f:
        json.dump(host, f, indent=1)
    for why in b.failures[:20]:
        print("perfbench: FAILED %s" % why, file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": not b.failures and attempted > 0, "attempted": attempted,
                      "failed": attempted - ok, "metrics": fmt_metrics(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
