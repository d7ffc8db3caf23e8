"""wittmod benchmark: one workload, timed end to end, or traced by layer.

    python3 perfbench/run.py --workload verify_default --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout (the script finds ``src/`` next to its
own directory).  ``--workload all`` runs every workload in turn, each in
a fresh interpreter, and prefixes its metrics with the workload's name.

With ``--trace 0`` the run measures passes until the next one would
overrun ``--seconds`` (always at least one), checks every reply, and
prints the end-to-end metrics.  With ``--trace 1`` it runs each request
of pass 0 twice, back to back, once untraced and once with the layer
probes of ``tracer.py`` installed, requires both to give the same
verdicts, and prints the per-layer metrics.  Either way the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe, pin_to_one_core

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

COLD_STARTS = 11          # timed cold starts per run
COLD_START_EVERY = 1.5    # seconds of requests between two of them
SETUP_ARGV = ["bracket", "dt1", "t1*dt1"]
SETUP_REPLY = "dt1\n"


class ColdStarts:
    """CLI cold start: a fresh interpreter imports wittmod and answers one
    bracket.  Launches are spread over the run, between requests and never
    inside a timed one.  The first launch fills the bytecode cache and is
    not timed."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.env = env
        self.argv = [sys.executable, "-c",
                     "from wittmod.cli import main; main()"] + SETUP_ARGV
        self.spans = []
        self.error = ""
        self.last = 0.0
        self.launch(timed=False)

    def launch(self, timed=True):
        t0 = time.perf_counter()
        done = subprocess.run(self.argv, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        self.last = time.perf_counter()
        if done.returncode != 0 or done.stdout != SETUP_REPLY:
            self.error = "cold start replied %r, exit %d: %s" % (
                done.stdout, done.returncode, done.stderr.strip())
        elif timed:
            self.spans.append((t0, self.last))

    def between_requests(self):
        if (len(self.spans) < COLD_STARTS - 1
                and time.perf_counter() - self.last >= COLD_START_EVERY):
            self.launch()

    def finish(self):
        while len(self.spans) < COLD_STARTS and not self.error:
            self.launch()


def timed_pass(reqs, between=None):
    """Send each request after the previous reply.  Returns the replies
    and each request's (start, end) on the perf_counter clock."""
    replies, spans = [], []
    clock = time.perf_counter
    for req in reqs:
        a = clock()
        replies.append(req.call())
        spans.append((a, clock()))
        if between is not None:
            between()
    return replies, spans


def wall(spans):
    return sum(b - a for a, b in spans)


def verdicts(reqs, replies):
    return [msg for msg in (r.verdict(rep) for r, rep in zip(reqs, replies))
            if msg]


def percentile(vals, q):
    """Nearest-rank percentile."""
    vals = sorted(vals)
    return vals[max(1, math.ceil(q * len(vals))) - 1]


def warm_up(name, seed):
    """Let lazy imports inside the CLI happen before timing."""
    from workloads import calculator_pass
    if name == "calculator":
        timed_pass(calculator_pass(seed, "warmup", blocks=1))


def run_measured(name, seed, seconds):
    from workloads import WORKLOADS, cases_of
    work = WORKLOADS[name]
    pin_to_one_core()
    cold = ColdStarts()
    warm_up(name, seed)
    passes, problems = [], []
    attempted = cases = 0
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        k = 0
        while True:
            reqs = work.make_pass(seed, k)
            t0 = time.perf_counter()
            replies, spans = timed_pass(reqs, between=cold.between_requests)
            problems += verdicts(reqs, replies)
            passes.append(spans)
            cases += sum(cases_of(r) for r in replies)
            attempted += len(reqs)
            k += 1
            cost = time.perf_counter() - t0
            if time.perf_counter() - begin + cost > seconds:
                break
        cold.finish()
    if cold.error:
        problems.append(cold.error)
    walls = [sum(probe.adjust(a, b) for a, b in spans) for spans in passes]
    lat = walls if work.pass_is_one_request else [
        probe.adjust(a, b) for spans in passes for a, b in spans]
    busy = sum(walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(probe.adjust(a, b)
                                      for a, b in cold.spans), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "cases_per_s": (cases / busy, "1/s"),
        "req_p50_ms": (percentile(lat, 0.50) * 1000.0, "ms"),
        "req_p99_ms": (percentile(lat, 0.99) * 1000.0, "ms"),
        "req_per_s": (len(lat) / busy, "1/s"),
    }
    info = {"passes": k, "requests": attempted, "cases": cases,
            "failed_frac": len(problems) / (attempted + 1),
            "raw.wall_s": statistics.median(wall(s) for s in passes),
            "raw.setup_s": statistics.median(b - a for a, b in cold.spans),
            "speed.reference_ms": probe.median_cost() * 1000.0,
            "speed.samples": len(probe.cost)}
    # the cold-start replies count as one more request
    return metrics, attempted + 1, problems, info


def run_traced(name, seed):
    from tracer import PROBES, Tracer
    from workloads import REGISTRY, WORKLOADS, cases_of
    make_pass, key, _ = WORKLOADS[name]
    pin_to_one_core()
    warm_up(name, seed)
    reqs = make_pass(seed, 0)
    tracer = Tracer()
    plain, traced, plain_spans, traced_spans = [], [], [], []
    clock = time.perf_counter
    with SpeedProbe() as speed:
        # each request runs untraced and traced back to back, in turns
        # first, so both runs of it see the machine at the same speed and
        # their raw times compare like with like
        for i, req in enumerate(reqs):
            for with_probes in ((False, True), (True, False))[i % 2]:
                if with_probes:
                    tracer.install()
                    try:
                        a = clock()
                        traced.append(tracer.request(req.call))
                        traced_spans.append((a, clock()))
                    finally:
                        tracer.uninstall()
                else:
                    a = clock()
                    plain.append(req.call())
                    plain_spans.append((a, clock()))
    plain_wall, traced_wall = wall(plain_spans), wall(traced_spans)
    problems = verdicts(reqs, plain)
    for req, a, b in zip(reqs, plain, traced):
        msg = req.verdict(b)
        if not msg and key(a) != key(b):
            msg = "%s: traced reply differs from untraced" % (
                getattr(req, "label", None) or req.argv)
        if msg:
            problems.append("traced " + msg)
    layers = tracer.layer_times()
    metrics = {}
    for _, _, probe, kind in PROBES:
        calls, _, own = layers[probe]
        metrics[probe + ".calls"] = (calls, "count")
        if kind == "span":
            metrics[probe + ".self_s"] = (own, "s")
    rows, cols, nonzeros = tracer.rref_work
    metrics["linalg.rref.rows"] = (rows, "count")
    metrics["linalg.rref.cols"] = (cols, "count")
    metrics["linalg.rref.nonzeros"] = (nonzeros, "count")
    per_check = {cid: [0.0, 0] for cid in REGISTRY}
    for req, rep, (a, b) in zip(reqs, plain, plain_spans):
        if hasattr(rep, "cases"):
            per_check[req.check][0] += speed.adjust(a, b)
            per_check[req.check][1] += cases_of(rep)
    for cid, (secs, cases) in per_check.items():
        metrics["verifier.%s.s" % cid] = (secs, "s")
        metrics["verifier.%s.cases" % cid] = (cases, "count")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0,
                                      "frac")
    info = {"requests": len(reqs), "raw.untraced_wall_s": plain_wall,
            "raw.traced_wall_s": traced_wall}
    info.update(layer_shares(tracer, layers, traced_wall))
    return metrics, 2 * len(reqs), problems, info


def layer_shares(tracer, layers, wall):
    """Self time per module as a share of the traced wall time (the
    ``request`` share is the callers' own code: the verifier's sweep loops
    and the CLI's argument handling), and for each request the share
    spent in the CLI layer and the parser/printer, as a median."""
    by_module = {}
    for probe, (_, _, own) in layers.items():
        module = probe.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + own
    out = {"self_share.%s" % mod: own / wall
           for mod, own in sorted(by_module.items())}
    shares = tracer.request_shares({"cli.build_parser",
                                    "expressions.parse_expr",
                                    "expressions.print_expr"})
    out["request_share.cli+expressions.median"] = statistics.median(shares)
    return out


def report(name, metrics, problems, info, out):
    print("== %s" % name, file=out)
    for key in sorted(info):
        val = info[key]
        print("  %-44s %s" % (key, "%.6g" % val
                              if isinstance(val, float) else val), file=out)
    for key in sorted(metrics):
        val, unit = metrics[key]
        text = "%d" % val if isinstance(val, int) else "%.6g" % val
        print("  %-44s %-12s %s" % (key, text, unit), file=out)
    for msg in problems[:20]:
        print("  FAILED %s" % msg, file=out)


def run_one(name, args):
    """One workload in this process: (metrics in the form of the result
    line, attempted, failed)."""
    if args.trace:
        metrics, n, problems, info = run_traced(name, args.seed)
    else:
        metrics, n, problems, info = run_measured(name, args.seed,
                                                  args.seconds)
    report(name, metrics, problems, info, sys.stdout)
    return ({key: {"value": val, "unit": unit}
             for key, (val, unit) in metrics.items()}, n, len(problems))


def run_child(name, args):
    """One workload in a fresh interpreter, so that its memory peak,
    imports and module state are its own.  Its table is passed on."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("workload %s exited with %d" % (
            name, done.returncode))
    res = json.loads(lines[-1])
    return res["metrics"], res["attempted"], res["failed"]


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        results = [(name + ".", run_child(name, args)) for name in WORKLOADS]
    else:
        results = [("", run_one(args.workload, args))]
    attempted = failed = 0
    merged = {}
    for prefix, (metrics, n, bad) in results:
        attempted += n
        failed += bad
        for key, val in metrics.items():
            merged[prefix + key] = val
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "wittmod", "__init__.py")):
        print("error: no wittmod sources under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
