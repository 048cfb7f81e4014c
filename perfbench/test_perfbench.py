"""Tests of the benchmark's own code: span arithmetic, patching, oracles.

    python3 -m pytest perfbench
"""

import json
import sys

import pytest

import oracles
import run
import tracer

sys.path.insert(0, str(run.SRC))


def test_self_and_total_time_on_nested_tree():
    # A(0-10) contains B(1-4) > C(2-3), B(5-7) and an inner A(8-9.5)
    spans = [
        (3, 2, "C", 2.0, 3.0),
        (2, 1, "B", 1.0, 4.0),
        (4, 1, "B", 5.0, 7.0),
        (5, 1, "A", 8.0, 9.5),
        (1, tracer.ROOT, "A", 0.0, 10.0),
    ]
    stats = tracer.summarize(spans)
    calls, self_s, total_s = stats["A"]
    assert calls == 2
    assert self_s == pytest.approx((10 - 3 - 2 - 1.5) + 1.5)
    assert total_s == pytest.approx(10.0)  # the inner A is not counted twice
    assert stats["B"] == [2, pytest.approx(2.0 + 2.0), pytest.approx(5.0)]
    assert stats["C"] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    # self times partition the root span
    assert sum(row[1] for row in stats.values()) == pytest.approx(10.0)
    assert tracer.count_containing(spans, ("B",), "C") == 1
    assert tracer.count_containing(spans, ("A",), "C") == 1
    assert tracer.count_containing(spans, ("B",), "A") == 0


def _resolve(module_name, path):
    import importlib

    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(module, cls_name))[attr]
    return getattr(module, path)


def test_install_patches_copies_and_restore_puts_originals_back(capsys):
    import so3tqft.cli
    import so3tqft.cyclo
    import so3tqft.finite_image

    originals = [_resolve(module, path) for module, path, _name, _obs in tracer.TARGETS]
    so3_closure = so3tqft.finite_image.so3_closure

    t = tracer.Tracer(op=7)
    t.install()
    patched = list(t._patched)
    try:
        for original in originals:
            assert any(orig is original for _owner, _attr, orig in patched)
        # a `from .finite_image import so3_closure` copy is patched too
        assert so3tqft.cli.so3_closure is not so3_closure
        assert so3tqft.cli.so3_closure is so3tqft.finite_image.so3_closure
        assert so3tqft.cli.main(["dims", "--r", "7", "--genus", "2", "--json"]) == 0
    finally:
        t.restore()
    capsys.readouterr()

    assert "fusion_dims.dim_space" in {s[2] for s in t.spans}
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
        if isinstance(owner, type):
            assert vars(owner)[attr] is original
    for (module, path, _name, _obs), original in zip(tracer.TARGETS, originals):
        assert _resolve(module, path) is original, path
    assert so3tqft.cli.so3_closure is so3_closure


def test_trace_file_round_trip(tmp_path):
    t = tracer.Tracer(op=3)
    f = t.wrap(lambda x: x + 1, "outer")
    g = t.wrap(lambda x: f(x) * 2, "inner")
    assert g(1) == 4
    path = tmp_path / "t.jsonl"
    t.write(path, import_s=0.5)
    header, spans = tracer.read_trace(path)
    assert header["op"] == 3 and header["import_s"] == 0.5
    assert [(s[2], s[1]) for s in spans] == [("outer", spans[1][0]), ("inner", tracer.ROOT)]


def _op(argv):
    return run.run_op(argv, timeout=120)


SEED_OPS = {
    "image": ["image", "--r", "5", "--json"],
    "chartab": ["chartab", "--r", "5", "--check-ltwo", "--check-borel", "--json"],
    "verify-all": ["verify-all", "--r", "5", "--seed", "3", "--json"],
    "dims": ["dims", "--r", "13", "--genus", "4", "--verlinde-check", "--json"],
}


def _tamper(out, edit):
    rep = json.loads(out)
    edit(rep)
    return json.dumps(rep).encode()


TAMPERS = {
    "image": lambda rep: rep.__setitem__("order", rep["order"] + 1),
    "chartab": lambda rep: rep["degrees"].__setitem__(-1, rep["degrees"][-1] + 1),
    "verify-all": lambda rep: rep["checks"][0].__setitem__("ok", False),
    "dims": lambda rep: rep.__setitem__("verlinde_agrees", not rep["verlinde_agrees"]),
}


@pytest.mark.parametrize("sub", sorted(SEED_OPS))
def test_oracle_accepts_program_output_and_rejects_tampered_copy(sub):
    res = _op(SEED_OPS[sub])
    assert res.code == 0
    assert res.problems == []
    assert oracles.check(res.argv, 0, _tamper(res.out, TAMPERS[sub]))


def test_chartab_oracle_checks_degree_multiset():
    res = _op(SEED_OPS["chartab"])
    # nine degrees with the right sum of squares (120) but the wrong multiset
    fake = _tamper(res.out, lambda rep: rep.__setitem__("degrees", [2] * 6 + [4, 4, 8]))
    problems = oracles.check(res.argv, 0, fake)
    assert len(problems) == 1 and problems[0].startswith("degree multiset")


def test_oracles_ignore_wall_time_key():
    res = _op(SEED_OPS["image"])
    rep = json.loads(res.out)
    rep["wall_time"] = 123.0
    assert oracles.check(res.argv, 0, json.dumps(rep).encode()) == []
    del rep["wall_time"]
    assert oracles.check(res.argv, 0, json.dumps(rep).encode()) == []


def test_dims_wrong_dim_and_nonzero_exit_rejected():
    res = _op(SEED_OPS["dims"])
    assert oracles.check(res.argv, 0, _tamper(res.out, lambda r: r.__setitem__("dim", r["dim"] + 1)))
    assert oracles.check(res.argv, 1, res.out) == ["exit code 1"]


def test_known_verlinde_gate_defect_is_a_failed_op_with_an_exact_dim():
    # verlinde_dim rounds a double past 2**53: at r=13, g=9 the gate exits 1
    # although dim equals the 80-digit Verlinde sum
    res = _op(["dims", "--r", "13", "--genus", "9", "--verlinde-check", "--json"])
    rep = json.loads(res.out)
    assert rep["dim"] == oracles.verlinde_exact(13, 9)
    assert res.code == 1
    assert res.problems == ["exit code 1", "verlinde_agrees: got False, want True"]


def test_sl2_degree_closed_form():
    assert oracles.sl2_degrees(5) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    for r in (7, 11, 13):
        degs = oracles.sl2_degrees(r)
        assert len(degs) == r + 4
        assert sum(d * d for d in degs) == r * (r * r - 1)


def test_benchmark_json_matches_driver():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_workload_ops_depend_on_seed_only_through_verify_all():
    assert run.workload_ops("verify", 4) != run.workload_ops("verify", 5)
    assert run.workload_ops("closure", 4) == run.workload_ops("closure", 5)
    assert len(run.workload_ops("verify", 1)) == 13
