"""Self-tests of the benchmark, kept out of the library's own suite.

    python3 -m pytest perfbench/selftest.py

The traced-run tests run every workload once untraced and once traced,
and one test runs ``--workload all`` (over two minutes on two cores
in all), so this file is not named ``test_*`` and a plain ``pytest`` from
the repository root does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from wittmod import witt  # noqa: E402
from wittmod.verifier import REGISTRY  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# per-layer counters each workload exists to exercise
EXERCISED = {
    "verify_default": [
        "superpoly.mono_mul.calls", "superpoly.merge_sign_masks.calls",
        "superpoly.popcount.calls", "witt.bracket_basis.calls",
        "dressed.dressed_bracket.calls", "dressed.dressed_bracket.self_s",
        "tensor_modules.TensorSpan.insert.calls",
        "tensor_modules.TensorSpan.insert.self_s",
    ] + ["verifier.%s.%s" % (cid, what) for cid in REGISTRY
         for what in ("s", "cases")],
    "acceptance": [
        "superpoly.SuperPoly.mul.calls", "superpoly.SuperPoly.mul.self_s",
        "witt.bracket_basis.calls",
        "witt.witt_bracket.calls", "witt.witt_bracket.self_s",
        "witt.bracket_oracle.calls", "witt.bracket_oracle.self_s",
        "dressed.commutant_element.calls",
        "dressed.commutant_element.self_s",
        "words.weyl_normal_order.calls", "words.weyl_normal_order.self_s",
        "words.difference_word.calls", "words.difference_word.self_s",
        "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.rows",
        "linalg.rref.cols", "linalg.rref.nonzeros",
        "linalg.invert.calls", "linalg.invert.self_s",
    ] + ["tensor_modules.%s.%s" % (fn, what)
         for fn in ("act_term", "act_word", "whittaker_space",
                    "pbw_basis_rewrite", "descent")
         for what in ("calls", "self_s")],
    "calculator": [
        "witt.witt_bracket.calls", "witt.witt_bracket.self_s",
        "expressions.parse_expr.calls", "expressions.parse_expr.self_s",
        "expressions.print_expr.calls", "expressions.print_expr.self_s",
        "cli.build_parser.calls", "cli.build_parser.self_s",
        "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.rows",
        "linalg.invert.calls",
    ] + ["tensor_modules.%s.%s" % (fn, what)
         for fn in ("act_term", "act_word", "whittaker_space",
                    "pbw_basis_rewrite", "descent")
         for what in ("calls", "self_s")],
}


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# seeded inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_requests(name):
    make = workloads.WORKLOADS[name][0]

    def stream(seed):
        return [repr(getattr(r, "argv", None) or (r.check, r.params))
                for k in range(2) for r in make(seed, k)]
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_calculator_mix_is_fixed_per_pass():
    def mix(seed):
        reqs = workloads.calculator_pass(seed, 0)
        return sorted((r.kind, r.m, r.n) for r in reqs)
    assert len(workloads.calculator_pass(7, 0)) == 320
    assert mix(7) == mix(8)
    assert {r.kind for r in workloads.calculator_pass(7, 0)} == set(
        workloads.CALC_KINDS)


# ---------------------------------------------------------------------------
# reply checks catch wrong replies

def test_calculator_check_rejects_a_wrong_bracket():
    req = next(r for r in workloads.calculator_pass(7, 0)
               if r.kind == "bracket")
    code, out, err = req.call()
    assert req.verdict((code, out, err)) == ""
    assert req.verdict((code, "2*" + out if out != "0\n" else "dt1\n",
                        err))
    assert req.verdict((2, "", "error"))


def test_malformed_request_must_exit_2():
    req = workloads.CliRequest("malformed", ["bracket", "q1", "dt1"])
    assert req.verdict(req.call()) == ""
    assert req.verdict((0, "dt1\n", ""))


def test_sweep_check_rejects_shrunk_coverage():
    req = next(r for r in workloads.verify_default_pass(7, 0)
               if r.check == "gl_realization")
    report = req.call()
    assert req.verdict(report) == ""
    report.cases = req.floor - 1
    assert "below the floor" in req.verdict(report)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_restores_every_namespace():
    from wittmod import cli, dressed, tensor_modules, verifier
    from wittmod.superpoly import SuperPoly
    from wittmod.tensor_modules import TensorSpan
    mul, insert = SuperPoly.__dict__["__mul__"], TensorSpan.__dict__["insert"]
    before = {(mod.__name__, attr): val
              for mod in (witt, dressed, tensor_modules, verifier, cli)
              for attr, val in vars(mod).items()}
    t = tracer.Tracer()
    t.install()
    assert dressed.dressed_bracket is not before[
        ("wittmod.dressed", "dressed_bracket")]
    assert verifier.dressed_bracket is dressed.dressed_bracket
    assert cli.build_parser is not before[("wittmod.cli", "build_parser")]
    t.uninstall()
    assert SuperPoly.__dict__["__mul__"] is mul
    assert TensorSpan.__dict__["insert"] is insert
    after = {(mod.__name__, attr): val
             for mod in (witt, dressed, tensor_modules, verifier, cli)
             for attr, val in vars(mod).items()}
    assert after == before


def test_self_times_partition_each_request():
    x = witt.WittElement.term(2, 1, (1, 0), 1, ("t", 1))
    y = witt.WittElement.term(2, 1, (0, 2), 0, ("x", 1))
    t = tracer.Tracer()
    t.install()
    try:
        t.request(witt.bracket_oracle, x, y)
        t.request(witt.witt_bracket, x, y)
    finally:
        t.uninstall()
    layers = t.layer_times()
    calls, total, own = layers["witt.bracket_oracle"]
    assert calls == 1 and 0 < own < total
    assert layers["superpoly.SuperPoly.mul"][0] > 0
    assert layers["witt.bracket_basis"][0] > 0
    # every instant of a request is the self time of exactly one span
    _, roots, _ = layers[tracer.REQUEST]
    assert abs(sum(v[2] for v in layers.values()) - roots) < 1e-9
    assert len(t.request_shares(set())) == 2


# ---------------------------------------------------------------------------
# the benchmark contract

def test_trace0_prints_every_end_to_end_metric():
    res = _result(_run(["--workload", "calculator", "--seed", "3",
                        "--seconds", "1", "--trace", "0"]))
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_all_runs_each_workload_in_its_own_process():
    res = _result(_run(["--workload", "all", "--seed", "3",
                        "--seconds", "1", "--trace", "0"]))
    assert res["correct"] and res["failed"] == 0
    want = {"%s.%s" % (w, m["name"]): m["unit"]
            for w in workloads.WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    # calculator runs after acceptance; in one process it would report
    # acceptance's memory peak as its own
    rss = {w: res["metrics"][w + ".peak_rss_mb"]["value"]
           for w in workloads.WORKLOADS}
    assert rss["calculator"] < rss["acceptance"]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "calculator", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    res = _result(_run(["--workload", request.param, "--seed", "5",
                        "--seconds", "20", "--trace", "1"]))
    return request.param, res


def test_traced_verdicts_equal_untraced(traced):
    name, res = traced
    assert res["correct"] and res["failed"] == 0, name
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_layer_counters_nonzero_where_exercised(traced):
    name, res = traced
    zero = [k for k in EXERCISED[name] if not res["metrics"][k]["value"] > 0]
    assert not zero, (name, zero)
