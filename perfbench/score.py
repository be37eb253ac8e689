"""Metric extraction for the perfbench benchmark.

Everything here is a pure function of captured output: rixbench's cell
events and JSON tables, the references, and the traced run's spans.
self_test() checks the functions on fixed inputs; run.py calls it
before every run, so a broken metric never reaches a result line.
"""

import json
import re

# Figure 4's configuration columns: the accuracy metrics compare these.
FIG4_CONFIGS = ["squash", "+general", "+opcode", "+reverse",
                "squash/or", "+general/or", "+opcode/or", "+reverse/or"]
FIG4_PROGRAMS = ["gzip", "crafty", "vortex", "mcf"]
# The paper's mean +reverse speedup with realistic (LISP) suppression.
PAPER_REVERSE_SPEEDUP = 8.0

_EVENT = re.compile(r"^\[[^\]]*\] (start|done|FAIL)\s+(\S+) \[([^\]]*)\]")


def quantile(values, q):
    """Linear-interpolation quantile of values at q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def parse_events(lines):
    """Parses rixbench -v cell lines, given as (receipt_time, text)
    pairs, into (time, kind, program, label) tuples; kind is start, done
    or FAIL. Other lines are ignored."""
    out = []
    for t, text in lines:
        m = _EVENT.match(text)
        if m:
            out.append((t, m.group(1), m.group(2), m.group(3)))
    return out


def expected_cells(plan, suite, programs):
    """The (program, label) cells of one suite of the matrix. programs
    restricts it to a workload subset (None = every program), as
    rixbench -bench does."""
    cells = plan["cells"][suite]
    return [(b, l) for b in cells["benches"] if programs is None or b in programs
            for l in cells["labels"]]


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mismatched_programs(out_suite, ref_suite, programs):
    """Programs whose rendered rows differ between out_suite and
    ref_suite. A difference outside a program's own rows (title, header,
    notes, an aggregate row, a missing table) implicates every program
    of the suite."""
    if out_suite is None:
        return set(programs)
    if canonical(out_suite) == canonical(ref_suite):
        return set()
    bad = set()
    whole = (out_suite.get("description") != ref_suite.get("description")
             or len(out_suite.get("tables") or []) != len(ref_suite["tables"]))
    for ot, rt in zip(out_suite.get("tables") or [], ref_suite["tables"]):
        if (ot.get("title"), ot.get("header"), ot.get("notes")) != \
                (rt.get("title"), rt.get("header"), rt.get("notes")):
            whole = True
            continue
        orows = {r[0]: r for r in ot.get("rows") or [] if r}
        rrows = {r[0]: r for r in rt.get("rows") or [] if r}
        if [r[0] for r in ot.get("rows") or [] if r] != [r[0] for r in rt.get("rows") or [] if r]:
            whole = True
        for key in set(orows) | set(rrows):
            if orows.get(key) != rrows.get(key):
                if key in programs:
                    bad.add(key)
                else:
                    whole = True
    if whole or not bad:
        return set(programs)
    return bad


def score_cells(events, output, ref, cells):
    """Counts the cells that completed and whose rendered rows match the
    reference.

    events: parse_events output for one rixbench process. output: the
    process's parsed -json output (a list of suites), or None if it
    printed none. ref: the reference suite. cells: expected_cells for
    the matrix.

    Returns (attempted, ok, reasons): reasons names each failed cell."""
    done = {(p, l) for _, k, p, l in events if k == "done"}
    failed = {(p, l) for _, k, p, l in events if k == "FAIL"}
    out = next((s for s in output or [] if s.get("id") == ref["id"]), None)
    bad = mismatched_programs(out, ref, sorted({p for p, _ in cells}))
    ok = 0
    reasons = []
    for p, l in cells:
        if (p, l) in failed:
            reasons.append("%s [%s]: cell error" % (p, l))
        elif (p, l) not in done:
            reasons.append("%s [%s]: did not finish" % (p, l))
        elif p in bad:
            reasons.append("%s [%s]: rows differ from reference" % (p, l))
        else:
            ok += 1
    return len(cells), ok, reasons


def _fig4_rows(suite, table):
    t = suite["tables"][table]
    cols = t["header"]
    return {r[0]: dict(zip(cols, r)) for r in t["rows"] if r}


def _num(s):
    return float(s.replace("+", ""))


def accuracy(own_fig4, other_fig4, own_is_detail):
    """Gap between full-detail and sampled Figure 4 rows for the four
    traced programs, from this workload's own fig4 output against the
    other mode's reference. Relative IPC error uses the detail value as
    the denominator. paper_gap_pts is this output's GMean +reverse
    speedup against the paper's 8%."""
    detail, sampled = (own_fig4, other_fig4) if own_is_detail else (other_fig4, own_fig4)
    dtop, stop = _fig4_rows(detail, 0), _fig4_rows(sampled, 0)
    dbot, sbot = _fig4_rows(detail, 1), _fig4_rows(sampled, 1)
    ipc = rate = speedup = 0.0
    for p in FIG4_PROGRAMS:
        d, s = _num(dtop[p]["baseIPC"]), _num(stop[p]["baseIPC"])
        ipc = max(ipc, abs(s - d) / d * 100)
        for c in FIG4_CONFIGS:
            speedup = max(speedup, abs(_num(stop[p][c]) - _num(dtop[p][c])))
            rate = max(rate, abs(_num(sbot[p][c]) - _num(dbot[p][c])))
    gap = abs(_num(_fig4_rows(own_fig4, 0)["GMean"]["+reverse"]) - PAPER_REVERSE_SPEEDUP)
    return {"ipc_err_pct": round(ipc, 6), "rate_err_pts": round(rate, 6),
            "speedup_err_pts": round(speedup, 6), "paper_gap_pts": round(gap, 6)}


def union_ns(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-layer self time in seconds: each span's duration minus the
    part of it its children cover."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered = union_ns(kids.get(s["id"], []), s["start_ns"], s["end_ns"])
        own = (s["end_ns"] - s["start_ns"]) - covered
        out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9
    return out


def layer_metrics(trace):
    """Per-layer metrics from the tracer's spans and counts."""
    spans, counts, jobs = trace["spans"], trace["counts"], trace["jobs"]

    def calls(layer, name):
        return [s for s in spans if s["layer"] == layer and s["name"] == name]

    def ms(ss):
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in ss]

    def rate(ss, key):  # million instructions per host second
        ns = sum(s["end_ns"] - s["start_ns"] for s in ss)
        return sum(s["attrs"][key] for s in ss) / (ns / 1e3) if ns else 0.0

    m = {}
    builds = calls("workload", "BuildContext")
    m["workload.builds"] = (len(builds), "count")
    m["workload.build_ms"] = (median(ms(builds)), "ms")
    runs = calls("emu", "Run")
    m["emu.runs"] = (len(runs), "count")
    m["emu.minstr_per_s"] = (rate(runs, "instrs"), "Minstr/s")

    pl = calls("pipeline", "RunContext")
    m["pipeline.runs"] = (len(pl), "count")
    for p in FIG4_PROGRAMS:
        ss = [s for s in pl if s["cell"].split("/")[0] == p]
        ns = sum(s["end_ns"] - s["start_ns"] for s in ss)
        m["pipeline.%s.minstr_per_s" % p] = (rate(ss, "retired"), "Minstr/s")
        cyc = sum(s["attrs"]["cycles"] for s in ss)
        m["pipeline.%s.ns_per_cycle" % p] = (ns / cyc if cyc else 0.0, "ns")
    kinstr = sum(s["attrs"]["retired"] for s in pl) / 1e3
    m["pipeline.allocs_per_kinstr"] = (sum(s["attrs"]["mallocs"] for s in pl) / kinstr, "1/kinstr")
    m["pipeline.alloc_kb_per_kinstr"] = (sum(s["attrs"]["alloc_bytes"] for s in pl) / 1024 / kinstr, "KB/kinstr")
    m["pipeline.cycles"] = (sum(s["attrs"]["cycles"] for s in pl), "count")
    m["pipeline.retired"] = (sum(s["attrs"]["retired"] for s in pl), "count")
    t_none = sum(s["end_ns"] - s["start_ns"] for s in pl if s["cell"].endswith("/none"))
    t_rev = sum(s["end_ns"] - s["start_ns"] for s in pl if s["cell"].endswith("/+reverse"))
    m["core.host_overhead_pct"] = ((t_rev / t_none - 1) * 100 if t_none else 0.0, "%")

    warm = calls("sample", "PrepareWarm")
    m["sample.warm_ms"] = (median(ms(warm)), "ms")
    m["sample.warm_minstr_per_s"] = (rate(warm, "instrs"), "Minstr/s")
    sets, passes = counts.get("warm_sets", 0), counts.get("warm_requests", 0)
    m["sample.warm_sets"] = (sets, "count")
    m["sample.warm_passes"] = (passes, "count")
    m["sample.warm_reuse"] = (sets / passes if passes else 0.0, "ratio")
    win = ms(calls("sample", "ExecuteWindow"))
    m["sample.windows"] = (len(win), "count")
    m["sample.window_ms_p50"] = (median(win), "ms")
    m["sample.window_ms_p90"] = (quantile(win, 0.9), "ms")
    sched, disc = counts.get("windows_scheduled", 0), counts.get("windows_discarded", 0)
    m["sample.windows_scheduled"] = (sched, "count")
    m["sample.windows_discarded"] = (disc, "count")
    m["sample.window_useful"] = ((sched - disc) / sched if sched else 0.0, "ratio")
    fills = [s for s in calls("sample", "PrepareWarm.fill") if s["attrs"]["writes"]]
    m["sample.cache_fill_ms"] = (median(ms(fills)), "ms")
    m["sample.cache_hit_ms"] = (median(ms(calls("sample", "PrepareWarm.hit"))), "ms")
    m["sample.cache_mb"] = (counts.get("cache_bytes", 0) / 2**20, "MB")
    m["sample.cache_hits"] = (counts.get("cache_hits", 0), "count")

    suites = [s for s in spans if s["layer"] == "runner" and s["name"] == "suite"]
    cells = [s for s in spans if s["name"] == "cell"]
    cell_ms = ms(cells)
    wall = sum(s["end_ns"] - s["start_ns"] for s in suites) / 1e9
    m["runner.cells"] = (len(cells), "count")
    m["runner.cell_ms_p50"] = (median(cell_ms), "ms")
    m["runner.cell_ms_p90"] = (quantile(cell_ms, 0.9), "ms")
    m["runner.busy_frac"] = (sum(cell_ms) / 1e3 / (wall * jobs) if wall else 0.0, "ratio")
    tail = 0.0
    for su in suites:
        starts = [c["start_ns"] for c in cells if c["parent"] == su["id"]]
        if starts:
            tail += (su["end_ns"] - max(starts)) / 1e9
    m["runner.tail_s"] = (tail, "s")
    m["runner.wall_s"] = (wall, "s")

    st = self_times(spans)
    for layer in ("workload", "emu", "pipeline", "sample", "runner"):
        m["self_s.%s" % layer] = (st.get(layer, 0.0), "s")
    m["trace.spans"] = (len(spans), "count")
    # The traced matrix ran between two unobserved runs of it.
    untraced = [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "matrix.untraced"]
    runs = len(untraced) / len(suites) if suites else 0
    base = sum(untraced) / 1e9 / runs if runs else wall
    m["trace.overhead_s"] = (wall - base, "s")
    m["trace.overhead_pct"] = ((wall / base - 1) * 100 if base else 0.0, "%")
    return m


def self_test(golden_fig4, sampled_fig4, plan):
    """Checks the metric code on fixed inputs. Returns a list of
    failures (empty when every check holds)."""
    fails = []

    def check(name, got, want):
        if abs(got - want) > 1e-9:
            fails.append("%s: got %r, want %r" % (name, got, want))

    xs = list(range(1, 11))
    check("median", median(xs), 5.5)
    check("p90", quantile(xs, 0.9), 9.1)
    check("p50 of one", quantile([7.0], 0.5), 7.0)

    acc = accuracy(sampled_fig4, golden_fig4, own_is_detail=False)
    back = accuracy(golden_fig4, sampled_fig4, own_is_detail=True)
    check("speedup_err_pts", acc["speedup_err_pts"], 12.3)  # crafty +general: 14.6 vs 2.3
    check("rate_err_pts", acc["rate_err_pts"], 0.6)  # gzip +general; vortex rev-part (4.0) is excluded
    check("ipc_err_pct", acc["ipc_err_pct"], round((2.35 - 2.27) / 2.27 * 100, 6))  # crafty
    check("paper_gap_pts sampled", acc["paper_gap_pts"], 0.5)
    check("paper_gap_pts detail", back["paper_gap_pts"], 2.6)
    check("accuracy symmetric", back["speedup_err_pts"], acc["speedup_err_pts"])

    cells = expected_cells(plan, "fig4", FIG4_PROGRAMS)
    events = [(0.0, "done", p, l) for p, l in cells]
    att, ok, _ = score_cells(events, [golden_fig4], golden_fig4, cells)
    check("clean attempted", att, 36)
    check("clean ok", ok, 36)

    altered = json.loads(json.dumps(golden_fig4))
    altered["tables"][0]["rows"][1][2] = "+14.7"  # crafty +general
    att, ok, why = score_cells(events, [golden_fig4], altered, cells)
    check("altered reference ok", ok, 27)
    if ok >= att:
        fails.append("altered reference kept ok_frac at 1: %r" % why[:3])

    errored = list(events)
    errored[-1] = (0.0, "FAIL", errored[-1][2], errored[-1][3])
    att, ok, why = score_cells(errored, [golden_fig4], golden_fig4, cells)
    check("forced cell error ok", ok, 35)
    att, ok, _ = score_cells(events[:-1], None, golden_fig4, cells)
    check("no output ok", ok, 0)

    lines = [(1.5, "[07:00:00] start  gzip [none]"),
             (2.5, "[07:00:01] done   gzip [none] (234633 retired)"),
             (3.0, "[07:00:01] FAIL   mcf [+reverse/lisp]: boom"),
             (3.1, "unrelated")]
    ev = parse_events(lines)
    if ev != [(1.5, "start", "gzip", "none"), (2.5, "done", "gzip", "none"),
              (3.0, "FAIL", "mcf", "+reverse/lisp")]:
        fails.append("parse_events: %r" % ev)

    spans = [{"id": 1, "parent": 0, "layer": "runner", "start_ns": 0, "end_ns": 10},
             {"id": 2, "parent": 1, "layer": "sample", "start_ns": 1, "end_ns": 3},
             {"id": 3, "parent": 1, "layer": "sample", "start_ns": 2, "end_ns": 5},
             {"id": 4, "parent": 1, "layer": "sample", "start_ns": 8, "end_ns": 12},
             {"id": 5, "parent": 3, "layer": "pipeline", "start_ns": 2, "end_ns": 4}]
    st = self_times(spans)
    check("runner self", st["runner"] * 1e9, 4)   # 10 - union{[1,5],[8,10]}
    check("sample self", st["sample"] * 1e9, 7)   # 2 + (3 - 2) + 4
    check("pipeline self", st["pipeline"] * 1e9, 2)
    return fails
