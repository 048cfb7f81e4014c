import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import so3tqft
from so3tqft.cli import MAX_IMAGE_R, MAX_LEVEL, build_parser, main
from so3tqft.levels import is_odd_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_on_bad_r(capsys):
    code, out, err = run(capsys, "modular-data", "--r", "4")
    assert code == 2
    assert "odd prime" in err


def test_capacity_errors(capsys):
    code, out, err = run(capsys, "chartab", "--r", "17", "--json")
    assert code == 3
    assert "capacity" in err
    past_cap = next(p for p in range(MAX_IMAGE_R + 1, 2 * MAX_IMAGE_R) if is_odd_prime(p))
    code, out, err = run(capsys, "image", "--r", str(past_cap), "--json")
    assert code == 3
    code, out, err = run(capsys, "dims", "--r", "7", "--genus", "13", "--json")
    assert code == 3
    code, out, err = run(capsys, "tau", "--r", "5", "--survey", "25", "--json")
    assert code == 3
    past_level = next(p for p in range(MAX_LEVEL + 1, 2 * MAX_LEVEL) if is_odd_prime(p))
    code, out, err = run(capsys, "modular-data", "--r", str(past_level), "--json")
    assert code == 3 and "capacity" in err
    # refused before any work: the dimension alone would not fit in memory
    code, out, err = run(capsys, "dims", "--r", "100000000003", "--genus", "2", "--json")
    assert code == 3 and out == ""


def test_dims_json(capsys):
    code, out, err = run(capsys, "dims", "--r", "7", "--genus", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 14
    assert report["schema"] == "1"
    assert report["margin_checks"]["g2"] == -7


def test_dims_verlinde_check(capsys):
    code, out, err = run(
        capsys, "dims", "--r", "11", "--genus", "2", "--verlinde-check", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 55
    assert report["verlinde_nearest"] == 55
    assert report["verlinde_agrees"]


@pytest.mark.parametrize("r, genus", [(13, 9), (13, 12), (31, 6), (31, 12)])
def test_dims_verlinde_check_past_double_precision(capsys, r, genus):
    # a double rounded to the nearest integer misses the dimension here
    code, out, err = run(
        capsys, "dims", "--r", str(r), "--genus", str(genus), "--verlinde-check", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert round(report["verlinde_float"]) != report["dim"]
    assert report["verlinde_nearest"] == report["dim"]
    assert report["verlinde_agrees"]


def test_json_round_trip_and_determinism(capsys):
    code, out1, _ = run(capsys, "modular-data", "--r", "5", "--json")
    assert code == 0
    parsed = json.loads(out1)
    redumped = json.dumps(parsed, sort_keys=True, indent=None, separators=(",", ":"))
    assert redumped == out1.strip()
    code, out2, _ = run(capsys, "modular-data", "--r", "5", "--json")
    assert out1 == out2


def test_modular_data_exact_fields_have_no_floats(capsys):
    code, out, _ = run(capsys, "modular-data", "--r", "5", "--json")
    report = json.loads(out)
    for pair in report["global_dim"]["coeffs"]:
        assert isinstance(pair[0], int) and isinstance(pair[1], int)
    for entry in report["s_tilde"]["entries"]:
        for pair in entry["coeffs"]:
            assert isinstance(pair[0], int) and isinstance(pair[1], int)


def test_modular_data_csv(capsys):
    code, out, _ = run(capsys, "modular-data", "--r", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 3  # header + two labels


def test_weil_verify(capsys):
    code, out, _ = run(capsys, "weil", "--r", "5", "--verify", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["intertwiner_relations"]
    assert report["s_block_identity"] and report["t_block_identity"]


def test_image_json(capsys):
    code, out, _ = run(capsys, "image", "--r", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 60
    assert report["matches"] == "PSL2"
    assert report["generator_orders"] == {"s": 2, "t": 5, "st": 3}
    assert report["linear_lift"]["linear_image"] == "SL2"
    assert "max_order" not in report["inputs"]


def test_image_at_the_cap(capsys):
    r = MAX_IMAGE_R
    code, out, _ = run(capsys, "image", "--r", str(r), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == r * (r * r - 1) // 2
    assert report["matches"] == "PSL2"
    assert report["linear_lift"]["linear_image"] == ("SL2" if r % 4 == 1 else "PSL2")


@pytest.mark.parametrize(
    "how", ("t_squared", "s_t_swapped", "lambda_t_times_zeta_r", "lambda_s_negated")
)
def test_image_exits_1_when_a_certificate_fails(capsys, how, break_certificate):
    break_certificate(7, how)
    code, out, err = run(capsys, "image", "--r", "7", "--json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["matches"] == "neither"
    assert report["order"] is None


def test_image_exits_1_when_the_weil_pair_differs(capsys, monkeypatch):
    import dataclasses

    import so3tqft.weil as weil

    w = weil.build_weil(7)
    for tampered in (
        dataclasses.replace(w, r_s_odd=w.r_t_odd, r_t_odd=w.r_s_odd),  # blocks swapped
        dataclasses.replace(w, r_t_odd=w.r_t_odd @ w.r_t_odd),  # t-block squared
    ):
        monkeypatch.setattr(weil, "build_weil", lambda r: tampered)
        code, out, err = run(capsys, "image", "--r", "7", "--generators", "weil", "--json")
        assert code == 1 and err == ""
        assert json.loads(out)["weil_image_equality"] is False
        assert run(capsys, "image", "--r", "7", "--json")[0] == 0


@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_ltwo_all_pairs_matches_pair_by_pair_loop(r):
    from so3tqft.cli import _ltwo_all_pairs
    from so3tqft.sl2_char import sl2_table, tensor_decompose

    tbl = sl2_table(r)
    half = (r - 1) // 2
    triv = tbl.trivial_index()
    k = tbl.num_classes()
    want = all(
        any(m and tbl.degrees[c] > half for c, m in enumerate(tensor_decompose(tbl, a, b)))
        for a in range(k)
        for b in range(a, k)
        if triv not in (a, b)
    )
    assert _ltwo_all_pairs(r) is want is True


@pytest.mark.parametrize(
    "argv",
    [
        ["modular-data", "--json"],
        ["modular-data", "--csv"],
        ["weil", "--verify", "--json"],
        ["dims", "--genus", "2", "--verlinde-check", "--json"],
        ["image", "--json"],
        ["image", "--generators", "weil"],
        ["chartab", "--check-ltwo", "--check-borel", "--json"],
        ["tau", "--chain", "2", "--heegaard", "stts", "--survey", "6", "--json"],
        ["verify-all", "--json"],
    ],
)
def test_output_is_byte_identical_across_runs(argv):
    # two fresh processes with different string-hash seeds print the same bytes
    src = str(Path(so3tqft.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "so3tqft.cli", *argv, "--r", "5"],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


_THREADS = (
    "import os, so3tqft, so3tqft.cycmatrix; "
    "print(os.environ['OPENBLAS_NUM_THREADS']); "
    "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_import_sets_one_blas_thread_unless_preset():
    src = str(Path(so3tqft.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src

    def run(**extra):
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS],
            capture_output=True,
            env=dict(env, **extra),
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert run() == ["1", "1"]
    assert run(OPENBLAS_NUM_THREADS="2")[0] == "2"


_COLD = """
import sys
from so3tqft.cli import MAX_IMAGE_R, main
from so3tqft.levels import is_odd_prime

try:
    main(["--version"])
except SystemExit as exit:
    assert exit.code == 0
assert "so3tqft.fusion_dims" not in sys.modules
assert main(["dims", "--r", "13", "--genus", "12", "--verlinde-check", "--json"]) == 0
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)
assert "dataclasses" not in sys.modules
"""


_IMAGE = """
import sys
from so3tqft.cli import MAX_IMAGE_R, main
from so3tqft.levels import is_odd_prime

assert main(["image", "--r", "5", "--json"]) == 0
not_loaded = {"so3tqft.sl2_char", "so3tqft.mfld3", "so3tqft.fusion_dims", "so3tqft.weil"}
assert not not_loaded & set(sys.modules), sorted(not_loaded & set(sys.modules))
"""


_VERIFY_PAST_CAPS = """
import sys
from so3tqft.cli import main

assert main(["verify-all", "--r", "17", "--json"]) == 0
assert "so3tqft.sl2_char" not in sys.modules
assert "so3tqft.finite_image" not in sys.modules
"""


def _fresh_python(code):
    src = str(Path(so3tqft.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dims_and_version_never_import_numpy():
    out = _fresh_python(_COLD)
    assert out[0] == so3tqft.__version__
    assert json.loads(out[1])["verlinde_agrees"] is True


def test_image_imports_only_what_it_runs():
    assert json.loads(_fresh_python(_IMAGE)[0])["order"] == 60


def test_verify_all_past_the_caps_imports_no_table_or_enumeration():
    assert json.loads(_fresh_python(_VERIFY_PAST_CAPS)[0])["all_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["modular-data", "--r", "5", "--json", "--out", "{tmp}/missing/x.json"],
        ["tau", "--r", "5", "--survey", "-3", "--json"],
        ["dims", "--r", "5", "--genus", "1", "--seed", "3"],
        ["dims", "--r", "5", "--genus", "0", "--verlinde-check"],
        ["dims", "--r", "5", "--genus", "1", "--boundary", "2", "--verlinde-check"],
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_tau_json(capsys):
    code, out, _ = run(capsys, "tau", "--r", "5", "--chain", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"value_exact", "value_complex", "norm", "sigma", "kappa_order"}
    assert report["sigma"] == 1
    assert abs(report["norm"] - 0.8506508083520399) < 1e-9


def test_chartab_csv(capsys):
    code, out, _ = run(capsys, "chartab", "--r", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "degree"
    assert len(lines) == 1 + 9  # header + nine irreducibles


def test_verify_all_r5(capsys):
    code, out, _ = run(capsys, "verify-all", "--r", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"]
    assert report["failed"] == []


def test_verify_all_exits_1_when_the_projective_relations_fail(capsys, monkeypatch):
    import so3tqft.modular_data as modular_data
    # bound now, these modules keep the genus-1 pair for the other checks
    import so3tqft.finite_image, so3tqft.mfld3, so3tqft.weil  # noqa: F401,E401

    rho_s, rho_t = modular_data.rho_genus1(5)
    monkeypatch.setattr(modular_data, "rho_genus1", lambda r: (rho_t, rho_s))
    code, out, _ = run(capsys, "verify-all", "--r", "5", "--json")
    assert code == 1
    assert json.loads(out)["failed"] == ["projective-relations"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "dims", "--r", "7", "--genus", "1", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["dim"] == 3


def _coefficient_pairs(coeffs):
    """A matrix entry's coefficients as CycNumber.to_json writes them, one
    reduced [num, den] list per coefficient."""
    fracs = (Fraction(int(x), coeffs.den) for x in coeffs.num)
    return [[q.numerator, q.denominator] for q in fracs]


@pytest.mark.parametrize(
    "argv",
    [["chartab", "--r", str(r), "--check-ltwo", "--check-borel", "--json"] for r in (5, 7, 11, 13)]
    + [["modular-data", "--r", "13", "--json"]],
)
def test_streamed_json_equals_json_dumps(argv, tmp_path, capsys):
    # the report written piece by piece is json.dumps of the same report with
    # a list per coefficient, on stdout and through --out
    args = build_parser().parse_args(argv)
    _, report = args.fn(args)
    report.pop("csv_rows", None)
    want = json.dumps(report, sort_keys=True, separators=(",", ":"), default=_coefficient_pairs)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want + "\n"
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == want + "\n"


_PEAK = """
import contextlib, os, tracemalloc
from so3tqft import cli, sl2_char
tracemalloc.start()
sl2_char.sl2_table(13)
sl2_char.borel_check(13)
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(["chartab", "--r", "13", "--check-ltwo", "--check-borel", "--json"])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_chartab_peak_memory():
    # in a fresh process, so no cache is warm: the traced peak of the r = 13
    # tables, the Borel check and the report's emission together.  It is
    # 2.6 MB with the checks on the eigenvalue multiplicities at the roots and
    # no power table, against 12.3 MB when they transformed the power-basis
    # table and 21.1 MB with products lifted and a list per coefficient
    src = str(Path(so3tqft.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 1.5 * 2.6e6


def test_chain_with_a_leading_negative_framing(capsys):
    # argparse reads "-1,2" after a space as an option, so it takes "="
    from so3tqft.cyclo import CycNumber
    from so3tqft.mfld3 import ChainSurgery, tau
    from so3tqft.modular_data import build_modular_data

    code, out, err = run(capsys, "tau", "--r", "7", "--chain=-1,2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["chain"] == [-1, 2]
    want = tau(build_modular_data(7), ChainSurgery((-1, 2))).value
    assert CycNumber.from_json(report["value_exact"]) == want
    code, out, err = run(capsys, "tau", "--r", "7", "--chain", "-1,2", "--json")
    assert code == 2 and out == ""
    assert "argument --chain: expected one argument" in err


def test_tau_survey_without_a_certificate_reports_the_error(capsys, monkeypatch):
    import so3tqft.finite_image as finite_image

    monkeypatch.setattr(finite_image, "identify_group", lambda r: {"order": None})
    code, out, err = run(capsys, "tau", "--r", "5", "--survey", "2", "--json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert "no certificate" in report["survey"]["error"]
    assert report["inputs"]["survey"] == 2 and "value_exact" in report


_SURVEY_PEAK = """
import tracemalloc
from so3tqft.finite_image import identify_group, so3_generators
from so3tqft.mfld3 import norm_survey
from so3tqft.modular_data import build_modular_data
md = build_modular_data(43)
identify_group(43)
so3_generators(43)
tracemalloc.start()
report = norm_survey(md, 3)
print(report["classes_reached"], tracemalloc.get_traced_memory()[1])
"""


def test_norm_survey_peak_memory():
    # in a fresh process, with the certificate and the lift already built:
    # the traced peak of the survey alone.  It is 5.7 MB with one row per
    # class keyed by PSL2(F_43), against 37.4 MB when the search kept each
    # class as an exact n x n matrix of the lift
    src = str(Path(so3tqft.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SURVEY_PEAK],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    classes, peak = map(int, proc.stdout.split())
    assert classes == 11
    assert peak < 10e6
