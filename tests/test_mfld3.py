import random

import numpy as np
import pytest

from so3tqft.cycmatrix import CycMatrix
from so3tqft.modular_data import build_modular_data, rho_genus1
from so3tqft.mfld3 import (
    ChainSurgery,
    LENS_WORD_SIGN,
    _heegaard_entry,
    connected_sum,
    heegaard_tau,
    heegaard_word_matrix,
    kappa,
    lens_routes_agree,
    lens_word,
    norm_survey,
    omega_chain_bracket,
    signature,
    tau,
    tau_union,
)

PRIMES = (5, 7, 11, 13)


def test_signature_examples():
    assert signature([[1]]) == 1
    assert signature([[0]]) == 0
    assert signature([[-4]]) == -1
    assert signature([[2, 1], [1, 2]]) == 2  # eigenvalues 1 and 3
    assert signature([[0, 1], [1, 0]]) == 0  # hyperbolic plane
    assert signature([[0, 3], [3, 0]]) == 0
    assert signature([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 3
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])


def test_signature_against_float_eigenvalues():
    # independent oracle: float spectra of random small symmetric matrices,
    # skipping any spectrum too close to zero for the float sign to be trusted
    rng = random.Random(123)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        ev = np.linalg.eigvalsh(np.array(m, dtype=float))
        if any(1e-12 < abs(e) < 1e-4 for e in ev):
            continue
        want = int((ev > 1e-8).sum()) - int((ev < -1e-8).sum())
        assert signature(m) == want
        checked += 1
    assert checked > 80


def test_chain_linking_matrix():
    c = ChainSurgery((2, -1, 5))
    assert c.linking_matrix() == [[2, 1, 0], [1, -1, 1], [0, 1, 5]]
    assert ChainSurgery(()).linking_matrix() == []


def test_tau_anchors():
    for r in PRIMES:
        md = build_modular_data(r)
        d_inv = md.global_dim.inv()
        assert omega_chain_bracket(md, ChainSurgery(())) == md.field.one
        assert tau(md, ChainSurgery(())).value == d_inv          # S^3
        assert tau(md, ChainSurgery((0,))).value == md.field.one # S^1 x S^2
        assert tau(md, ChainSurgery((1,))).value == d_inv        # L(1,1) = S^3
        # bracket of a single 0-framed unknot is D itself
        assert omega_chain_bracket(md, ChainSurgery((0,))) == md.global_dim


def test_blowup_invariance_exact():
    for r in PRIMES:
        md = build_modular_data(r)
        base = ChainSurgery((3, 2))
        t_base = tau(md, base)
        for sign in (1, -1):
            blown = tau_union(md, [base, ChainSurgery((sign,))])
            assert blown.value == t_base.value
        # the bracket picks up exactly p_{+/-}/D
        d_inv = md.global_dim.inv()
        lhs = omega_chain_bracket(md, ChainSurgery((1,)))
        assert lhs == md.p_plus * d_inv
        assert omega_chain_bracket(md, ChainSurgery((-1,))) == md.p_minus * d_inv


def test_orientation_reversal_is_conjugation():
    for r in (5, 7, 11):
        md = build_modular_data(r)
        for framings in ((2,), (3, 2), (-2, 0, 5)):
            plus = tau(md, ChainSurgery(framings)).value
            minus = tau(md, ChainSurgery(tuple(-n for n in framings))).value
            assert minus == plus.conj()


def test_connected_sum():
    rng = random.Random(6)
    for r in (5, 7):
        md = build_modular_data(r)
        s3 = tau(md, ChainSurgery(()))
        assert connected_sum(s3, s3, md).value == s3.value
        for _ in range(5):
            framings = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
            t_m = tau(md, ChainSurgery(framings))
            assert connected_sum(t_m, s3, md).value == t_m.value
        # k copies of S^1 x S^2 give D^(k-1)
        for k in range(1, 5):
            total = tau_union(md, [ChainSurgery((0,))] * k)
            want = md.field.one
            for _ in range(k - 1):
                want = want * md.global_dim
            assert total.value == want


def test_union_is_connected_sum():
    for r in (5, 7):
        md = build_modular_data(r)
        c1, c2 = ChainSurgery((2,)), ChainSurgery((3, 0, -1))
        lhs = tau_union(md, [c1, c2]).value
        rhs = md.global_dim * tau(md, c1).value * tau(md, c2).value
        assert lhs == rhs


def test_heegaard_words():
    md = build_modular_data(5)
    d = abs(md.global_dim.embed())
    assert heegaard_tau(md, "") == 1.0
    assert abs(heegaard_tau(md, "s") - 1 / d) < 1e-12
    # inverses really invert
    m = heegaard_word_matrix(md, "tT")
    assert m.is_identity()
    assert heegaard_word_matrix(md, "ss").is_identity()
    with pytest.raises(ValueError):
        heegaard_tau(md, "sxt")


def test_lens_space_two_routes():
    for r in (5, 7):
        md = build_modular_data(r)
        for p in range(-12, 13):
            lhs = tau(md, ChainSurgery((p,))).norm
            rhs = heegaard_tau(md, lens_word(p))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs), (r, p)


def test_lens_two_routes_exact_form():
    # D * <chain (p)> equals D^2 times the (0,0) entry of s t^-p s exactly
    for r in (5, 7, 11):
        md = build_modular_data(r)
        d = md.global_dim
        for p in (-3, -1, 0, 2, 5):
            entry = heegaard_word_matrix(md, lens_word(p, sign=-1))[(0, 0)]
            bracket = omega_chain_bracket(md, ChainSurgery((p,)))
            assert d * bracket == d * d * entry


def test_lens_routes_agree_in_exact_norm():
    for r in (5, 7, 11):
        md = build_modular_data(r)
        for p in range(-12, 13):
            assert lens_routes_agree(md, p), (r, p)
            # the exact squared norm is real and matches the float output
            x = tau(md, ChainSurgery((p,))).value
            nsq = x * x.conj()
            assert nsq.conj() == nsq
            assert abs(nsq.embed() - tau(md, ChainSurgery((p,))).norm ** 2) < 1e-9
        # the comparison is not vacuous: sign 0 pairs the chain (1), which is
        # S^3 with |tau| = 1/D, with the word ss of S^1 x S^2, whose norm is 1
        assert not lens_routes_agree(md, 1, sign=0)


def calibrate_lens_word_sign(md, max_p=6):
    """Try both exponent signs for the lens word against the surgery route;
    return the list of signs whose exact norms match for all |p| <= max_p."""
    return [
        sign
        for sign in (1, -1)
        if all(lens_routes_agree(md, p, sign) for p in range(-max_p, max_p + 1))
    ]


def test_lens_word_sign_calibration():
    for r in (5, 7, 11):
        md = build_modular_data(r)
        signs = calibrate_lens_word_sign(md)
        # both conventions match in norm (conjugation symmetry); the positive
        # one is pinned
        assert signs == [1, -1]
        assert LENS_WORD_SIGN in signs


def test_rp3_regression():
    # |tau(L(2,1))| at r = 5, pinned against the independent Heegaard route
    md = build_modular_data(5)
    value = tau(md, ChainSurgery((2,))).norm
    assert abs(value - 0.8506508083520399) < 1e-12
    assert abs(value - heegaard_tau(md, lens_word(2))) < 1e-12


def test_kappa_is_unit_modulus():
    # kappa * conj(kappa) == 1 is what lets tau take kappa^-n as conj(kappa)^n
    for r in (5, 7, 11, 13, 17, 19):
        md = build_modular_data(r)
        k = kappa(md)
        assert abs(abs(k.embed()) - 1) < 1e-12
        assert (k * k.conj()) == md.field.one


def test_tau_with_negative_signature_matches_inverse_power():
    for r in (5, 7, 11):
        md = build_modular_data(r)
        for framings in ((-2,), (-1, -3), (-2, -2, -2), (-5, 1, -4)):
            chain = ChainSurgery(framings)
            sigma = signature(chain.linking_matrix())
            assert sigma < 0
            bracket = omega_chain_bracket(md, chain)
            expected = md.global_dim_inv * bracket * kappa(md).inv() ** -sigma
            assert tau(md, chain).value == expected
            doubled = md.global_dim_inv * bracket * bracket * kappa(md).inv() ** (-2 * sigma)
            assert tau_union(md, [chain, chain]).value == doubled


def test_norm_survey():
    md = build_modular_data(5)
    report = norm_survey(md, 12)
    assert report["bounded_by_closure"]
    assert report["distinct_value_count"] <= report["closure_order"] == 60
    assert all(v <= 1 + 1e-12 for v in report["values"])
    d = abs(md.global_dim.embed())
    assert any(abs(v - 1 / d) < 1e-9 for v in report["values"])
    assert any(abs(v - 1.0) < 1e-12 for v in report["values"])
    assert report["classes_reached"] == 60
    assert sum(report["histogram"].values()) == report["classes_reached"]
    with pytest.raises(ValueError):
        norm_survey(md, 30)


def _reference_survey(md, max_word_len):
    """The survey's own one-class-at-a-time search over rho(s), rho(t), with
    each class divided by its first nonzero entry, kept as the oracle; the
    closure order is that of the enumeration."""
    from so3tqft.finite_image import canonicalize, so3_closure

    rho_s, rho_t = rho_genus1(md.r)
    ident = CycMatrix.identity(md.field, len(md.labels))
    buckets = {}

    def count(m):
        x = m[(0, 0)]
        buckets.setdefault(x * x.conj(), [round(abs(x.embed()), 12), 0])[1] += 1

    seen = {canonicalize(ident).key()}
    frontier = [ident]
    count(ident)
    saturation_length = max_word_len
    for length in range(1, max_word_len + 1):
        nxt = []
        for m in frontier:
            for g in (rho_s, rho_t):
                prod = g @ m
                key = canonicalize(prod).key()
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
                    count(prod)
        frontier = nxt
        if not frontier:
            saturation_length = length - 1
            break

    closure_order = so3_closure(md.r).order
    histogram = sorted(buckets.values())
    values = [v for v, _ in histogram]
    return {
        "r": md.r,
        "max_word_len": max_word_len,
        "classes_reached": len(seen),
        "distinct_value_count": len(values),
        "closure_order": closure_order,
        "bounded_by_closure": len(values) <= closure_order,
        "saturation_length": saturation_length,
        "values": values,
        "histogram": {str(v): c for v, c in histogram},
    }


@pytest.mark.parametrize("r", PRIMES)
def test_norm_survey_matches_one_class_at_a_time_search(r):
    md = build_modular_data(r)
    for length in (0, 1, 8, 20):
        assert norm_survey(md, length) == _reference_survey(md, length), length


def test_norm_survey_takes_the_certified_order(monkeypatch):
    import so3tqft.finite_image as finite_image

    def enumerate_(*args, **kwargs):
        raise AssertionError("the survey enumerated the image")

    monkeypatch.setattr(finite_image, "so3_closure", enumerate_)
    monkeypatch.setattr(finite_image, "_genus1_closure", enumerate_)
    report = norm_survey(build_modular_data(31), 3)
    assert report["closure_order"] == 31 * (31 * 31 - 1) // 2 == 14880
    assert report["bounded_by_closure"]


def test_norm_survey_raises_without_a_certificate(monkeypatch):
    # the PSL2(F_r) keys are sound only under identify_group's certificate
    import so3tqft.finite_image as finite_image

    monkeypatch.setattr(finite_image, "identify_group", lambda r: {"order": None})
    with pytest.raises(ArithmeticError, match="no certificate"):
        norm_survey(build_modular_data(5), 2)


def _dense_word_product(md, word):
    """The oracle: one dense product per letter, rho(t)^-1 = T built entry
    by entry from the twists."""
    rho_s, rho_t = rho_genus1(md.r)
    gens = {
        "s": rho_s,
        "S": rho_s,
        "t": rho_t,
        "T": CycMatrix.from_rows(
            md.field,
            [[md.twist[l] if l == m else md.field.zero for m in md.labels] for l in md.labels],
        ),
    }
    out = CycMatrix.identity(md.field, len(md.labels))
    for ch in word:
        if not ch.isspace():
            out = out @ gens[ch]
    return out


@pytest.mark.parametrize("r", (5, 7, 13))
def test_heegaard_word_matrix_matches_letter_by_letter_product(r):
    md = build_modular_data(r)
    rng = random.Random(r)
    words = ["", "tT", " ", "t" * 30, "T" * (r + 2), "s" + "t" * (2 * r + 1) + "TT s"]
    for _ in range(6):
        words.append("".join(rng.choice("sStT \t") for _ in range(rng.randrange(1, 25))))
    for word in words:
        assert heegaard_word_matrix(md, word) == _dense_word_product(md, word), word


@pytest.mark.parametrize("r", (5, 13, 43))
def test_heegaard_row_walk_matches_the_dense_word(r):
    # the row walked from e_0 gives entry (0, 0) of the dense word exactly
    md = build_modular_data(r)
    rng = random.Random(r)
    words = ["", "t", "T", "tt", "t" * r, "T" * (r + 3), "tTt"]
    for _ in range(10):
        words.append("".join(rng.choice("sStT") for _ in range(rng.randint(1, 12))))
    for word in words:
        entry = _heegaard_entry(md, word)
        assert entry == heegaard_word_matrix(md, word)[(0, 0)], word
        assert heegaard_tau(md, word) == abs(entry.embed())


def test_heegaard_word_names_the_first_bad_letter():
    md = build_modular_data(5)
    with pytest.raises(ValueError, match="'x'"):
        heegaard_word_matrix(md, "st T x y")


def _bracket_dividing_by_d(md, framings):
    """The chain bracket with the Kirby weight d_a / D theta_a^n at every
    component and a division by d_a at each interior one; the empty link
    evaluates to 1 and one unknot colored a to d_a."""
    f = md.field
    idx = {a: i for i, a in enumerate(md.labels)}

    def weight(j, a):
        return md.qdim[a] * md.global_dim_inv * md.theta_power(a, framings[j])

    if not framings:
        return f.one
    if len(framings) == 1:
        return sum((weight(0, a) * md.qdim[a] for a in md.labels), f.zero)
    cur = {b: f.zero for b in md.labels}
    for a in md.labels:
        for b in md.labels:
            cur[b] = cur[b] + weight(0, a) * md.s_tilde[(idx[a], idx[b])]
    for j in range(1, len(framings) - 1):
        nxt = {b: f.zero for b in md.labels}
        for a in md.labels:
            fac = cur[a] * weight(j, a) * md.qdim[a].inv()
            for b in md.labels:
                nxt[b] = nxt[b] + fac * md.s_tilde[(idx[a], idx[b])]
        cur = nxt
    return sum((cur[b] * weight(len(framings) - 1, b) for b in md.labels), f.zero)


@pytest.mark.parametrize("r", (5, 7, 13, 19))
def test_interior_components_need_no_division(r):
    # every chain length, the empty chain included, takes the one word walk
    md = build_modular_data(r)
    rng = random.Random(r)
    assert omega_chain_bracket(md, ChainSurgery(())) == _bracket_dividing_by_d(md, ())
    for k in (1, 2, 3, 4, 5):
        for _ in range(2):
            framings = tuple(rng.randint(-4, 4) for _ in range(k))
            want = _bracket_dividing_by_d(md, framings)
            assert omega_chain_bracket(md, ChainSurgery(framings)) == want, framings
    # framings past int64 once multiplied by a twist exponent
    framings = (10**18 + 3, -(2**64) - 1)
    assert omega_chain_bracket(md, ChainSurgery(framings)) == _bracket_dividing_by_d(md, framings)
