"""The repository benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds umf_serve and the in-process
program (perfbench/ocaml) with dune, runs the workload for S seconds,
checks every output, prints a table of the metrics and, as its last
line, one JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a separate traced run.
Raw results, and for a traced run the layer table, are written to
perfbench/results/ (or --results DIR); compare two such directories
with perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import stats  # noqa: E402

BENCH_EXE = os.path.join("_build", "default", "perfbench", "ocaml", "umf_bench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "umf_serve.exe")
SETUP_REPEATS = 51
NPROC = os.cpu_count() or 1

# Declared parent of each library span, as candidates: the first one
# present in the same registry wins; "@op" is the benchmark's own span
# around the call.  Spans not listed hang off "@op".
PARENTS = {
    "analysis.transient_bounds": ["@op", "serve.bounds"],
    "analysis.hull_bounds": ["@op", "serve.hull"],
    "analysis.steady_state_region_2d": ["@op", "serve.steady"],
    "analysis.first_passage": ["@op", "serve.first_passage"],
    "pontryagin.bound_series": ["analysis.transient_bounds"],
    "pontryagin.solve": ["pontryagin.bound_series", "@op"],
    "uncertain.sweep": ["analysis.transient_bounds", "@op"],
    "hull.bounds": ["analysis.hull_bounds", "@op"],
    "birkhoff.compute": ["analysis.steady_state_region_2d", "@op"],
    "ode.integrate": ["uncertain.sweep", "birkhoff.compute", "pontryagin.solve", "@op"],
    "ode.integrate_to": ["birkhoff.compute", "@op"],
    "ctmc.state_space": ["analysis.first_passage", "@op"],
    "ctmc.assemble": ["analysis.first_passage", "@op"],
    "ctmc.uniformization": ["analysis.first_passage", "@op"],
    "ctmc.expectation_series": ["analysis.first_passage", "@op"],
    "ctmc.imprecise_sweep": ["analysis.first_passage", "@op"],
    "ctmc.imprecise_sweep.adaptive": ["analysis.first_passage", "@op"],
    "pool.ctmc-assemble": ["ctmc.assemble"],
    "pool.ctmc-spmv": ["ctmc.expectation_series", "ctmc.uniformization"],
    "pool.ctmc-backward": ["ctmc.imprecise_sweep", "ctmc.imprecise_sweep.adaptive"],
}
# uniformisation sweeps: the span the engine uses and the plain one
UNIFORMIZATION_SPANS = ("ctmc.uniformization", "ctmc.expectation_series")
# layer metrics only the daemon workload exercises
SERVE_ONLY = ("codec.parse_us", "codec.fingerprint_us", "codec.render_us",
              "serve.queue_wait_ms.p50", "serve.queue_wait_ms.tail", "serve.batch_size",
              "serve.cache.hit_rate", "serve.overloaded", "serve.deadline_exceeded",
              "serve.release_lag_ms", "serve.release_lag_ms.tail", "loadgen.lateness_ms")
ANALYSIS_OPS = ("transient_bounds", "hull_bounds", "steady_state_region_2d", "first_passage")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    for f in ("dune-project", os.path.join("bin", "umf_serve.ml"), os.path.join("lib", "core", "codec.ml")):
        if not os.path.exists(f):
            fail("run from the repository root: %s is missing" % f)
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") else ["opam", "exec", "--", "dune"]
    r = subprocess.run(dune + ["build", "--root", ".", "./" + SERVE_EXE[len("_build/default/"):],
                               "./" + BENCH_EXE[len("_build/default/"):]],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout[-4000:])


def run_exe(args, timeout=170):
    r = subprocess.run([BENCH_EXE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        fail("%s %s failed: %s" % (BENCH_EXE, " ".join(args), r.stderr[-2000:]))
    return r.stdout


def machine_facts(ocaml_version):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": NPROC, "ocaml_version": ocaml_version, "commit": commit,
            "machine": platform.machine(), "python": platform.python_version()}


# ---------------------------------------------------------------- layers

def parent_of(span, present, op_span):
    for cand in PARENTS.get(span, ["@op"]):
        if cand == "@op":
            if op_span is not None:
                return op_span
        elif cand in present:
            return cand
    return None


def layer_rows(spans, op_span):
    """{span, parent, calls, total_s, self_s} rows of one registry: self
    time is total time minus the time of the declared children."""
    present = set(spans)
    parents = {s: (None if s == op_span else parent_of(s, present, op_span)) for s in spans}
    rows = []
    for s, st in spans.items():
        child = sum(spans[c]["total_s"] for c, p in parents.items() if p == s)
        rows.append({"span": s, "parent": parents[s], "calls": st["calls"],
                     "total_s": st["total_s"], "self_s": max(0.0, st["total_s"] - child)})
    return rows


def merge_rows(rows, scale):
    out = {}
    for r in rows:
        k = (r["span"], r["parent"])
        acc = out.setdefault(k, {"span": r["span"], "parent": r["parent"], "calls": 0,
                                 "total_s": 0.0, "self_s": 0.0})
        for f in ("calls", "total_s", "self_s"):
            acc[f] += r[f] * scale
    return sorted(out.values(), key=lambda r: -r["total_s"])


def span_sum(rows, name, field):
    return sum(r[field] for r in rows if r["span"] == name)


def read_trace(path):
    """Span rows, counter sums, gauge maxima and (state updates, seconds)
    of the uniformisation spans in an NDJSON trace.  The file is removed
    after reading: it can be large."""
    spans, counters, gauges = {}, {}, {}
    rows = dur = 0.0
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                ev = json.loads(line)
                name, kind = ev.get("name"), ev.get("ev")
                if kind == "span":
                    s = spans.setdefault(name, {"calls": 0, "total_s": 0.0})
                    s["calls"] += 1
                    s["total_s"] += ev.get("dur", 0.0)
                    if name in UNIFORMIZATION_SPANS:
                        rows += ev.get("rows", 0.0)
                        dur += ev.get("dur", 0.0)
                elif kind == "count":
                    counters[name] = counters.get(name, 0.0) + ev.get("v", 0.0)
                elif kind == "gauge":
                    gauges[name] = max(gauges.get(name, 0.0), ev.get("v") or 0.0)
        os.remove(path)
    return spans, counters, gauges, (rows, dur)


def tape_metrics(tape):
    per = list(tape.values())
    mean = lambda k: statistics.mean(t[k] for t in per)  # noqa: E731
    return {"tape.instructions": mean("instructions"),
            "tape.batch_ns_per_eval": mean("batch_ns_per_eval"),
            "tape.scalar_ns_per_eval": mean("scalar_ns_per_eval"),
            "tape.computed_bytes_per_eval": mean("computed_bytes_per_eval")}


def layer_metrics(rows, counters, gauges, pool, tape, upd, per):
    """Per-layer metrics from merged rows (already per pass), counters
    (per pass), gauge maxima, pool stage totals (per pass), tape rows."""
    c = lambda k: counters.get(k, 0.0)  # noqa: E731
    tot = lambda k: span_sum(rows, k, "total_s")  # noqa: E731
    calls = span_sum(rows, "pontryagin.solve", "calls")
    states, nnz = c("ctmc.states"), c("ctmc.nnz")
    assembles = span_sum(rows, "ctmc.assemble", "calls")
    m = {
        "pontryagin.solve.calls": calls,
        "pontryagin.solve.total_s": tot("pontryagin.solve"),
        "pontryagin.solve.self_s": span_sum(rows, "pontryagin.solve", "self_s"),
        "pontryagin.sweeps": c("pontryagin.sweeps"),
        "pontryagin.hamiltonian_evals": c("pontryagin.hamiltonian_evals"),
        "pontryagin.nonconverged_share": c("pontryagin.nonconverged") / calls if calls else 0.0,
        "hull.bounds.total_s": tot("hull.bounds"),
        "hull.steps": c("hull.steps"),
        "hull.face_evals": c("hull.face_evals"),
        "uncertain.sweep.total_s": tot("uncertain.sweep"),
        "uncertain.thetas": c("uncertain.thetas"),
        "birkhoff.compute.total_s": tot("birkhoff.compute"),
        "birkhoff.iterations": c("birkhoff.iterations"),
        "ode.steps": c("ode.steps"),
        "ctmc.state_space.total_s": tot("ctmc.state_space"),
        "ctmc.assemble.total_s": tot("ctmc.assemble"),
        "ctmc.states": states,
        "ctmc.nnz": nnz,
        "ctmc.uniformization.total_s": sum(tot(s) for s in UNIFORMIZATION_SPANS),
        "ctmc.terms": c("ctmc.terms"),
        "ctmc.spmv_flops": c("ctmc.spmv_flops"),
        "ctmc.state_updates_per_s": upd[0] / upd[1] if upd[1] else 0.0,
        # CSR step, 8-byte values and indices: value + column per
        # nonzero, row pointer, read x and write y per state
        "ctmc.computed_bytes_per_step": (16 * nnz + 24 * states) / assembles if assembles else 0.0,
        "ctmc.imprecise_sweep.total_s": tot("ctmc.imprecise_sweep") + tot("ctmc.imprecise_sweep.adaptive"),
        "envelope.sweep_steps": c("envelope.sweep_steps"),
        "first_passage.sweep_steps": c("first_passage.sweep_steps"),
        "ctmc.power_iters": c("ctmc.power_iters"),
        "ctmc.escaped_mass": gauges.get("ctmc.escaped_mass", 0.0),
        "pool.sections": pool["sections"],
        "pool.tasks": pool["tasks"],
        "pool.section_wall_s": pool["wall_s"],
        "pool.tasks_per_section": pool["tasks"] / pool["sections"] if pool["sections"] else 0.0,
    }
    for op in ANALYSIS_OPS:
        m["analysis.%s.self_s" % op] = span_sum(rows, "analysis." + op, "self_s")
    m.update(tape_metrics(tape) if tape else {})
    m.update(per)
    return m


# ------------------------------------------------------ in-process loops

def setup_median(workload):
    runs = [json.loads(run_exe(["setup", workload])) for _ in range(SETUP_REPEATS)]
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["models_build_s"] for r in runs))


def run_inprocess(args, cfg, out_base):
    setup_s, build_s = setup_median(args.workload)
    raw_path = out_base + ".raw.json"
    run_exe(["run", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", raw_path], timeout=175)
    raw = load_json(raw_path)
    os.remove(raw_path)
    samples = raw["samples"]
    n = len(samples)
    failed = sum(1 for s in samples if not s["ok"])
    facts = machine_facts(raw["ocaml_version"])
    by_op = {}
    for s in samples:
        by_op.setdefault(s["op"] + ":" + s["label"], []).append(s["lat_s"] * 1e3)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "attempted": n, "failed": failed,
              "failures": raw["failures"], "passes": raw["passes"], "domains": raw["domains"],
              "ops": {op: {"calls": len(v), "median_ms": statistics.median(v)} for op, v in sorted(by_op.items())}}
    if not args.trace:
        lat = [s["lat_s"] * 1e3 for s in samples]
        limit = cfg["latency_limit_ms"]
        tail = stats.tail(lat)
        widths = [s["width"] for s in samples if s["width"] is not None]
        hits = [s["lat_s"] * 1e3 for s in samples if s["repeat"]]
        # every pass makes the same calls: a call fails if any of its
        # repetitions does, so the share does not move with the speed
        per_pass = n // raw["passes"]
        failed_calls = {i % per_pass for i, s in enumerate(samples) if not s["ok"]}
        result["tail"] = {"percentile": tail[1], "samples": tail[2]} if tail else None
        result["metrics"] = {
            "setup_s": setup_s,
            # the median pass: a burst of load from other processes
            # on the host moves one pass, not the figure
            "throughput_qps": per_pass / statistics.median(raw["untraced_pass_s"]),
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail[0] if tail else max(lat),
            "hit_latency_p50_ms": statistics.median(hits),
            "slo_share": sum(1 for s in samples if s["ok"] and s["lat_s"] * 1e3 <= limit) / n,
            "fail_share": laplace(len(failed_calls), per_pass),
            "cert_width_mean": statistics.mean(widths),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        return result
    tr = raw["traced"]
    passes = tr["passes"]
    rows, counters, gauges = [], {}, {}
    for op, agg in tr["ops"].items():
        rows += layer_rows(agg["spans"], "bench." + op)
        for k, v in agg["counters"].items():
            counters[k] = counters.get(k, 0.0) + v / passes
        for k, v in agg["gauges"].items():
            gauges[k] = max(gauges.get(k, 0.0), v)
    rows = merge_rows(rows, 1.0 / passes)
    st = tr["pool_stages"].values()
    pool = {k: sum(s[k] for s in st) / passes for k in ("sections", "tasks", "wall_s")}
    gc = tr["gc"]
    per = {
        "models.build_s": build_s,
        "gc.minor_words": statistics.mean(g["minor_words"] for g in gc),
        "gc.major_collections": statistics.mean(g["major_collections"] for g in gc),
        "trace_overhead_share": sum(raw["traced_pass_s"]) / sum(raw["untraced_pass_s"]) - 1.0,
    }
    per.update({k: 0.0 for k in SERVE_ONLY})
    upd = read_trace(tr["trace_file"])[3]
    result["layers"] = rows
    result["pool_stages"] = tr["pool_stages"]
    result["metrics"] = layer_metrics(rows, counters, gauges, pool, tr["tape"], upd, per)
    return result


def laplace(failed, attempted):
    """Failure share of distinct calls as the rule-of-succession estimate
    (failed + 1) / (attempted + 2): never 0, and a clean run reads
    1/(attempted + 2)."""
    return (failed + 1) / (attempted + 2)


# ------------------------------------------------------------- serving

def spawn_serve(jobs, trace_file=None):
    cmd = [SERVE_EXE, "--jobs", str(jobs)]
    if trace_file:
        cmd += ["--trace", trace_file]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, bufsize=0)


def serve_setup(jobs):
    """Seconds from spawn until the first ping is answered."""
    t0 = time.perf_counter()
    client = loadgen.Client(spawn_serve(jobs))
    client.send('{"id":0,"op":"ping"}')
    if not client.wait_for(1, 30):
        client.close()
        fail("umf_serve did not answer ping")
    dt = client.recv[0][0] - t0
    client.close()
    return dt


def payload(raw_line):
    """The result/cert bytes of a success line (they end the line)."""
    i = raw_line.find(',"result":')
    return raw_line[i:] if i >= 0 else None


def saturate(client, batch, at, sat):
    """Send one burst round in one write, the lines getting answers
    at..at+len-1, and wait for its answers.  Adds to [sat] the lines
    sent, the answers, the round's rate (answers over the seconds from
    the write to its last answer) and the failed checks."""
    t = time.perf_counter()
    client.send(*(line for line, _ in batch))
    client.wait_for(at + len(batch), 60)
    recv = client.recv[at:at + len(batch)]
    sat["sent"] += len(batch)
    sat["answered"] += len(recv)
    if recv:
        sat["rates"].append(len(recv) / (recv[-1][0] - t))
    for (line, key), (_, answer) in zip(batch, recv):
        ok, why = check_response({"expect": "ok", "key": key}, json.loads(answer), answer, {})
        if not ok:
            sat["failures"].append({"check": why, "detail": line + " -> " + answer[:300]})
    sat["failures"] += [{"check": "response received", "detail": line} for line, _ in batch[len(recv):]]


def serve_pass(schedule, jobs, clip, seconds, trace_file=None, burst=None):
    """One daemon.  The open loop runs in as many equal time segments as
    the burst has rounds (one segment without a burst).  Once a
    segment's answers are in, one burst round measures saturation, so
    the rounds sample the whole run.  The open loop's clock stops during
    a round: every line keeps its due time within its segment.  Then
    the metrics endpoint."""
    client = loadgen.Client(spawn_serve(jobs, trace_file))
    rounds = burst or [None]
    span = seconds / len(rounds)
    segments = [[] for _ in rounds]
    for r in schedule:
        segments[min(int(r["due"] // span), len(rounds) - 1)].append(r)
    sat = {"sent": 0, "answered": 0, "rates": [], "failures": []}
    starts, sent, at = [], [], []  # per open-loop line: clock start, send time, answer index
    n = 0  # lines sent so far; the daemon answers in order
    try:
        for k, (seg, batch) in enumerate(zip(segments, rounds)):
            base = time.perf_counter() - k * span
            starts += [base] * len(seg)
            at += range(n, n + len(seg))
            n += len(seg)
            sent += loadgen.open_loop(client, seg, base)
            client.wait_for(n, 60)
            if batch:
                saturate(client, batch, n, sat)
                n += len(batch)
        recv = list(client.recv)
        client.send('{"id":"metrics","op":"metrics"}')
        client.wait_for(n + 1, 30)
        metrics = json.loads(client.recv[n][1])["result"] if len(client.recv) > n else {}
        rss = loadgen.read_vmhwm_mb(client.proc.pid)
    finally:
        client.close()
    first_payload = {}
    samples, failures = [], []
    answers = []
    for k, r in enumerate(schedule):
        s = {"kind": r["kind"], "key": r["key"], "lateness_ms": (sent[k] - starts[k] - r["due"]) * 1e3, "ok": False,
             "lat_ms": None, "cached": False, "width": None, "queue_wait_ms": None, "wall_ms": None}
        samples.append(s)
        if at[k] >= len(recv):
            failures.append({"check": "response received", "detail": r["line"]})
            continue
        t, line = recv[at[k]]
        answers.append(line)
        s["lat_ms"] = (t - starts[k] - r["due"]) * 1e3
        try:
            j = json.loads(line)
        except ValueError:
            failures.append({"check": "response is JSON", "detail": line[:200]})
            continue
        ok, why = check_response(r, j, line, first_payload)
        s["ok"] = ok
        if not ok:
            failures.append({"check": why, "detail": r["line"] + " -> " + line[:300]})
        s["cached"] = bool(j.get("cached"))
        s["queue_wait_ms"] = j.get("queue_wait_ms")
        s["wall_ms"] = j.get("wall_ms")
        if ok and r["expect"] == "ok" and r["key"] is not None:
            s["width"] = cert_width(r, j, clip)
    return {"samples": samples, "failures": failures, "metrics": metrics, "rss": rss,
            "saturation": sat, "responses": answers}


def check_response(r, j, line, first_payload):
    if r["expect"] != "ok":
        kind = (j.get("error") or {}).get("kind")
        if j.get("ok") is not False or kind != r["expect"]:
            return False, "expected error kind " + r["expect"]
        return True, ""
    if j.get("ok") is not True:
        return False, "expected a success response"
    if r["key"] is None:
        return True, ""
    res = j.get("result", {})
    if "lower" in res and "upper" in res and not ordered(res["lower"], res["upper"]):
        return False, "lower <= upper"
    pl = payload(line)
    prev = first_payload.setdefault(r["key"], pl)
    if prev != pl:
        return False, "warm payload bitwise equal to cold"
    return True, ""


def ordered(lo, hi):
    def flat(x):
        return [v for row in x for v in flat(row)] if isinstance(x, list) else [x]
    return all(a is not None and b is not None and a <= b for a, b in zip(flat(lo), flat(hi)))


def cert_width(r, j, clip):
    body = json.loads(r["line"])
    box = clip[body["model"]]
    if "coord" in body:
        c = body["coord"]
        rng = box["hi"][c] - box["lo"][c]
    else:  # hull certificates join every coordinate
        rng = max(box["hi"]) - min(box["lo"])
    cert = j.get("cert") or {}
    if cert.get("lo") is None or cert.get("hi") is None:
        return None
    return (cert["hi"] - cert["lo"]) / rng


def run_serve(args, cfg, out_base):
    jobs = min(cfg["jobs"], NPROC)
    facts = json.loads(run_exe(["clip"]))
    clip = facts["models"]
    setups = [serve_setup(jobs) for _ in range(SETUP_REPEATS)]
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    count = int(round(cfg["rate_per_s"] * seconds))
    schedule = loadgen.make_requests(args.seed, count, seconds, cfg["mix"], cfg["repeat_after_s"])
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(facts["ocaml_version"]), "rate_per_s": cfg["rate_per_s"], "jobs": jobs}
    burst = None if args.trace else loadgen.make_burst(args.seed, cfg["burst_rounds"], count)
    plain = serve_pass(schedule, jobs, clip, seconds, burst=burst)
    if not args.trace:
        return serve_e2e(result, plain, cfg, statistics.median(setups))
    trace_file = out_base + ".serve-trace.ndjson"
    traced = serve_pass(schedule, jobs, clip, seconds, trace_file)
    return serve_layers(result, plain, traced, trace_file, schedule, out_base)


def serve_e2e(result, p, cfg, setup_s):
    samples = p["samples"]
    sat = p["saturation"]
    n = len(samples) + sat["sent"]
    failures = p["failures"] + sat["failures"]
    lat = [s["lat_ms"] for s in samples if s["lat_ms"] is not None]
    cold = [s["lat_ms"] for s in samples
            if s["kind"] in ("heavy", "light") and s["lat_ms"] is not None and not s["cached"]]
    # cache hits; the repeats stand in should none have hit
    hits = ([s["lat_ms"] for s in samples if s["ok"] and s["cached"]]
            or [s["lat_ms"] for s in samples if s["kind"] == "repeat" and s["lat_ms"] is not None])
    # each distinct bracket once (a hit returns its cold bracket again),
    # averaged per (op, model, coordinate) class so that the seeded
    # request mix does not move the mean
    classes = {}
    for key, w in {s["key"]: s["width"] for s in samples if s["width"] is not None}.items():
        body = json.loads(key)
        classes.setdefault((body["op"], body["model"], body.get("coord")), []).append(w)
    widths = [statistics.mean(ws) for ws in classes.values()]
    tail = stats.tail(lat)
    limit = cfg["latency_limit_ms"]
    result.update({
        "attempted": n, "failed": len(failures), "failures": failures, "samples": samples,
        "tail": {"percentile": tail[1], "samples": tail[2]} if tail else None,
        "metrics": {
            "setup_s": setup_s,
            "throughput_qps": statistics.median(sat["rates"]) if sat["rates"] else 0.0,
            "latency_p50_ms": statistics.median(cold),
            "latency_tail_ms": tail[0] if tail else max(lat),
            "hit_latency_p50_ms": statistics.median(hits),
            "slo_share": sum(1 for s in samples if s["ok"] and s["lat_ms"] <= limit) / len(samples),
            "fail_share": laplace(len(failures), n),
            "cert_width_mean": statistics.mean(widths),
            "peak_rss_mb": p["rss"],
        },
    })
    return result


def serve_layers(result, plain, traced, trace_file, schedule, out_base):
    samples = traced["samples"]
    result["attempted"] = len(samples)
    result["failed"] = sum(1 for s in samples if not s["ok"])
    result["failures"] = traced["failures"]
    spans, counters, gauges, upd = read_trace(trace_file)
    sm = traced["metrics"]
    for name, st in sm.get("spans", {}).items():
        if name.startswith("serve.") or name.startswith("pool."):
            spans[name] = {"calls": st["calls"], "total_s": st["total_s"]}
    sc = sm.get("counters", {})
    rows = merge_rows(layer_rows(spans, None), 1.0)
    analysis = [s for s in samples if s["queue_wait_ms"] is not None and s["kind"] != "malformed"
                and s["kind"] != "ping"]
    qw = [s["queue_wait_ms"] for s in analysis]
    lag = [s["lat_ms"] - s["queue_wait_ms"] - s["wall_ms"] for s in analysis]
    late = [s["lateness_ms"] for s in samples]
    batches = sm.get("gauges", {}).get("serve.batch.size", {}).get("samples", 0)
    hits, misses = sc.get("serve.cache.hit", 0.0), sc.get("serve.cache.miss", 0.0)
    pool = {"sections": spans.get("pool.serve", {}).get("calls", 0),
            "tasks": sc.get("pool.serve.tasks", 0.0),
            "wall_s": spans.get("pool.serve", {}).get("total_s", 0.0)}
    busy = lambda p: sum(s["wall_ms"] or 0.0 for s in p["samples"])  # noqa: E731
    models = sorted({json.loads(r["line"])["model"] for r in schedule
                     if r["key"] is not None})
    with open(out_base + ".requests.ndjson", "w") as f:
        f.write("\n".join(r["line"] for r in schedule) + "\n")
    with open(out_base + ".responses.ndjson", "w") as f:
        f.write("\n".join(traced["responses"]) + "\n")
    codec_path = out_base + ".codec.json"
    run_exe(["codec", "--requests", out_base + ".requests.ndjson",
             "--responses", out_base + ".responses.ndjson", "--out", codec_path])
    codec = load_json(codec_path)
    tape_path = out_base + ".tape.json"
    run_exe(["tape", "--models", ",".join(models), "--steps", "100", "--out", tape_path])
    tape = load_json(tape_path)
    for p in (codec_path, tape_path, out_base + ".requests.ndjson", out_base + ".responses.ndjson"):
        os.remove(p)
    build_s = statistics.median(json.loads(run_exe(["setup", "serve_open_loop"]))["models_build_s"]
                                for _ in range(SETUP_REPEATS))
    qtail = stats.tail(qw)
    ltail = stats.tail(lag)
    lateness = stats.tail(late)
    per = {
        "models.build_s": build_s,
        "codec.parse_us": statistics.median(codec["parse_us"]),
        "codec.fingerprint_us": statistics.median(codec["fingerprint_us"]),
        "codec.render_us": statistics.median(codec["render_us"]),
        "serve.queue_wait_ms.p50": statistics.median(qw),
        "serve.queue_wait_ms.tail": qtail[0] if qtail else max(qw),
        "serve.batch_size": (len(samples) + 1) / batches if batches else 0.0,
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.overloaded": sc.get("serve.error.overloaded", 0.0),
        "serve.deadline_exceeded": sc.get("serve.error.deadline_exceeded", 0.0),
        "serve.release_lag_ms": statistics.mean(lag),
        "serve.release_lag_ms.tail": ltail[0] if ltail else max(lag),
        "gc.minor_words": 0.0,
        "gc.major_collections": 0.0,
        "loadgen.lateness_ms": lateness[0] if lateness else max(late),
        "trace_overhead_share": busy(traced) / busy(plain) - 1.0,
    }
    result["layers"] = rows
    result["metrics"] = layer_metrics(rows, counters, gauges, pool, tape, upd, per)
    return result


# ----------------------------------------------------------------- main

def report_table(result, units):
    lines = ["%-36s %14s  %s" % ("metric", "value", "unit")]
    for k, v in result["metrics"].items():
        lines.append("%-36s %14.6g  %s" % (k, v, units[k]))
    return lines


def layer_table(result):
    lines = ["| span | parent | calls | total_s | self_s |", "|---|---|---:|---:|---:|"]
    for r in result.get("layers", []):
        lines.append("| %s | %s | %.6g | %.6g | %.6g |" % (
            r["span"], r["parent"] or "-", r["calls"], r["total_s"], r["self_s"]))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join("perfbench", "results"))
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the repository root: BENCHMARK.json is missing")
    bench = load_json("BENCHMARK.json")
    cfg_all = load_json(os.path.join(HERE, "config.json"))
    known = [w["name"] for w in bench["workloads"]]
    if args.workload not in known:
        fail("unknown workload %s (known: %s)" % (args.workload, ", ".join(known)))
    build()
    os.makedirs(args.results, exist_ok=True)
    out_base = os.path.join(args.results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    cfg = cfg_all[args.workload]
    if args.workload == "serve_open_loop":
        result = run_serve(args, cfg, out_base)
    else:
        result = run_inprocess(args, cfg, out_base)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [m for m in units if m not in result["metrics"]]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    result["metrics"] = {m: result["metrics"][m] for m in units}
    with open(out_base + ".json", "w") as f:
        json.dump(result, f, indent=1)
    table = report_table(result, units)
    if args.trace:
        with open(out_base + ".md", "w") as f:
            f.write("# %s, seed %d: layer table (per pass)\n\n" % (args.workload, args.seed))
            f.write("\n".join(layer_table(result)) + "\n\n")
            f.write("trace_overhead_share = %.4f\n\n```\n%s\n```\n" % (
                result["metrics"]["trace_overhead_share"], "\n".join(table)))
    print("%s seed %d (%s): %d attempted, %d failed" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        result["attempted"], result["failed"]))
    for f_ in result["failures"][:10]:
        print("  FAILED %s: %s" % (f_["check"], f_["detail"][:200]))
    if result.get("tail"):
        print("latency_tail_ms is p%.2f over %d samples" % (result["tail"]["percentile"], result["tail"]["samples"]))
    print("\n".join(table))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": units[m]} for m in units},
    }))


if __name__ == "__main__":
    main()
