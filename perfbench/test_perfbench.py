"""Self-tests of the benchmark, at smoke sizes:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sylres  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def smoke(name: str, trace: int) -> dict:
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def first_op(wl, seed=5):
    inst = wl.instance(W.rng_for(wl.name, seed, 0, "instance"))
    return inst, wl.run(inst, W.rng_for(wl.name, seed, 0, "op"))


def verify_rng(wl, seed=5):
    return W.rng_for(wl.name, seed, 0, "verify")


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(W.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    result = smoke(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_normal_form_traced_through_every_binding_site():
    # resultant_certified reaches normal_form through sylres.invariant's own
    # binding; a wrapper on sylres.normalform alone would count nothing
    metrics = smoke("resultant-prime", 1)["metrics"]
    assert metrics["normalform.normal_form.calls"]["value"] > 0
    assert metrics["upoly.berlekamp_massey.calls"]["value"] > 0


def test_normal_form_verifier_rejects_corruption():
    wl = W.build("nf-ntt", smoke=True)
    (basis, f), nf = first_op(wl)
    assert wl.check((basis, f), nf, verify_rng(wl)) == W.OK
    one = sylres.BiPoly.one(wl.ctx)
    assert wl.check((basis, f), nf + one, verify_rng(wl)) == W.MISMATCH
    outside = sylres.BiPoly.monomial(wl.ctx, basis.d, 0)
    assert wl.check((basis, f), nf + outside, verify_rng(wl)) == W.MISMATCH


@pytest.mark.parametrize("name", ["resultant-prime", "resultant-ext"])
def test_resultant_verifier_rejects_corruption(name):
    wl = W.build(name, smoke=True)
    inst, report = first_op(wl)
    assert report.status == "certified-resultant"
    assert wl.check(inst, report, verify_rng(wl)) == W.CERTIFIED
    x_plus_1 = sylres.UPoly(wl.ctx, [1, 1])
    bad = dataclasses.replace(report, sigma=report.sigma * x_plus_1)
    assert wl.check(inst, bad, verify_rng(wl)) == W.MISMATCH
    bad.status = "divisor-or-failure"
    assert wl.check(inst, bad, verify_rng(wl)) == W.MISMATCH
    # 1 divides the resultant but is not the last invariant factor, which
    # only resultant-ext checks against the dense Smith form
    unit = dataclasses.replace(report, sigma=sylres.UPoly.one(wl.ctx), status="divisor-or-failure")
    assert wl.check(inst, unit, verify_rng(wl)) == (W.MISMATCH if wl.smith_check else W.OK)


def test_compose_verifier_rejects_corruption():
    wl = W.build("compose-bigprime", smoke=True)
    inst, out = first_op(wl)
    assert wl.check(inst, out, verify_rng(wl)) == W.OK
    assert wl.check(inst, out + sylres.BiPoly.one(wl.ctx), verify_rng(wl)) == W.MISMATCH


def test_instances_depend_only_on_seed_and_index():
    wl = W.build("nf-ntt", smoke=True)
    a = wl.instance(W.rng_for(wl.name, 7, 3, "instance"))
    b = wl.instance(W.rng_for(wl.name, 7, 3, "instance"))
    c = wl.instance(W.rng_for(wl.name, 7, 4, "instance"))
    assert a[1] == b[1] and a[0].a == b[0].a and a[1] != c[1]


def test_missing_wrapped_name_is_reported_absent():
    t = tracer.Tracer(
        layers={
            "upoly.gone": ["sylres.upoly:no_such_function"],
            "bipoly.bimul": ["sylres.bipoly:bimul", "sylres.no_such_module:bimul"],
        },
        counters={"gone.count": "sylres.upoly:NoSuchClass.__init__"},
    )
    assert t.absent == ["upoly.gone", "gone.count"]
    assert "sylres.no_such_module:bimul" in t.missing
    one = sylres.BiPoly.one(sylres.PrimeField(7))
    assert t.op(0, lambda: sylres.bimul(one, one)) == one
    metrics = t.metrics()
    assert "upoly.gone.calls" not in metrics and "gone.count" not in metrics
    assert metrics["bipoly.bimul.calls"] == 1


def test_tracer_restores_every_binding():
    original = sylres.normal_form
    t = tracer.Tracer()
    seen = []
    t.op(0, lambda: seen.extend([sylres.normal_form, sylres.invariant.normal_form, sylres.normalform.normal_form]))
    assert all(f is not original for f in seen)
    assert sylres.normal_form is sylres.invariant.normal_form is sylres.normalform.normal_form is original


def test_self_time_reconciles_with_op_wall():
    wl = W.build("resultant-prime", smoke=True)
    inst = wl.instance(W.rng_for(wl.name, 1, 0, "instance"))
    t = tracer.Tracer()
    t.op(0, wl.run, inst, W.rng_for(wl.name, 1, 0, "op"))
    # self times never overlap: they and the unattributed rest sum to the wall
    unattributed = t.metrics()["trace.unattributed_s"]
    assert 0 <= unattributed < 0.5 * t.walls_ns[0] / 1e9


def test_workloads_call_only_public_names():
    tree = ast.parse((HERE / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sylres"
    }
    assert used and used <= set(sylres.__all__)
    # attribute access is the only way in: no `from sylres... import`, no submodules
    from_imports = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    imports = [a for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    assert not any(m.startswith("sylres") for m in from_imports)
    assert all(a.name == "sylres" and a.asname is None for a in imports if a.name.startswith("sylres"))


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "nf-ntt", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
