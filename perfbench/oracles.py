"""Checks of so3tqft outputs that do not rely on the program's own checks.

`check` takes an op's argv, exit code and stdout bytes, parses the JSON
and hands it to the subcommand's `check_*`, which reads named fields only
(never raw bytes, so a run-dependent key such as ``wall_time`` neither
helps nor hurts) and appends the problems it finds.  An empty list means
the op passed.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def sl2_degrees(r: int) -> list:
    """Irreducible degrees of SL2(F_r), r an odd prime (Fulton-Harris 5.2)."""
    return sorted(
        [1, r]
        + [r + 1] * ((r - 3) // 2)
        + [r - 1] * ((r - 1) // 2)
        + [(r + 1) // 2] * 2
        + [(r - 1) // 2] * 2
    )


@lru_cache(maxsize=None)
def verlinde_exact(r: int, g: int) -> int:
    """sum_j (r / (4 sin^2(2 pi j / r)))^(g-1), j = 1..(r-1)/2, to 80 digits,
    rounded; raises if the sum is not within 1e-30 of an integer."""
    import mpmath

    with mpmath.workdps(80):
        total = mpmath.fsum(
            (r / (4 * mpmath.sin(2 * mpmath.pi * j / r) ** 2)) ** (g - 1)
            for j in range(1, (r - 1) // 2 + 1)
        )
        nearest = int(mpmath.nint(total))
        if abs(total - nearest) > mpmath.mpf(10) ** -30:
            raise ArithmeticError(f"Verlinde sum r={r} g={g} is not near an integer")
    return nearest


def check_image(argv, rep, problems):
    r = int(_arg(argv, "--r"))
    _expect(problems, "inputs.r", rep["inputs"]["r"], r)
    _expect(problems, "order", rep["order"], r * (r * r - 1) // 2)
    _expect(problems, "matches", rep["matches"], "PSL2")
    _expect(problems, "generator_orders", rep["generator_orders"], {"s": 2, "t": r, "st": 3})
    graph = rep["mod_r_graph"]
    _expect(problems, "mod_r_graph.is_homomorphism", graph["is_homomorphism"], True)
    _expect(problems, "mod_r_graph.kernel_is_center", graph["kernel_is_center"], True)
    lift = rep["linear_lift"]
    _expect(
        problems,
        "linear_lift.is_linear_representation",
        lift["is_linear_representation"],
        True,
    )
    want = "SL2" if r % 4 == 1 else "PSL2"
    _expect(problems, "linear_lift.linear_image", lift["linear_image"], want)


def check_chartab(argv, rep, problems):
    r = int(_arg(argv, "--r"))
    _expect(problems, "inputs.r", rep["inputs"]["r"], r)
    degrees = rep["degrees"]
    _expect(problems, "num_classes", rep["num_classes"], r + 4)
    _expect(problems, "sum of squared degrees", sum(d * d for d in degrees), r * (r * r - 1))
    _expect(problems, "degree multiset", Counter(degrees), Counter(sl2_degrees(r)))
    if "--check-ltwo" in argv:
        _expect(problems, "ltwo_all_pairs", rep["ltwo_all_pairs"], True)
    if "--check-borel" in argv:
        borel = rep["borel"]
        _expect(problems, "borel.index", borel["index"], r + 1)
        _expect(
            problems,
            "borel.observed_degree_set",
            set(borel["observed_degree_set"]),
            {1, (r - 1) // 2},
        )


def check_verify_all(argv, rep, problems):
    _expect(problems, "all_ok", rep["all_ok"], True)
    _expect(problems, "failed checks", [c["name"] for c in rep["checks"] if not c["ok"]], [])


def check_dims(argv, rep, problems):
    r = int(_arg(argv, "--r"))
    g = int(_arg(argv, "--genus"))
    _expect(problems, "inputs", (rep["inputs"]["r"], rep["inputs"]["genus"]), (r, g))
    _expect(problems, "dim", rep["dim"], verlinde_exact(r, g))
    if "--verlinde-check" in argv:
        _expect(problems, "verlinde_agrees", rep["verlinde_agrees"], True)


CHECKS = {
    "image": check_image,
    "chartab": check_chartab,
    "verify-all": check_verify_all,
    "dims": check_dims,
}


def check(argv, code, out):
    """Problems with one op's result; `argv` starts with the subcommand."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        rep = json.loads(out)
    except ValueError:
        return problems + ["stdout is not JSON"]
    try:
        CHECKS[argv[0]](argv, rep, problems)
    except (KeyError, TypeError, IndexError) as err:
        problems.append(f"malformed report: {err!r}")
    return problems
