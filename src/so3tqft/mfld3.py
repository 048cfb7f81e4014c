"""The 3-manifold invariant for chain surgeries and genus-1 Heegaard words.

A chain surgery is a linear chain of framed unknots in which consecutive
components form Hopf links: framings (n_1, ..., n_k), linking matrix with
the n_j on the diagonal and 1 on the first off-diagonals.  The invariant is

    tau(M) = (1/D) * <chain evaluated with every component carrying the
             Kirby color sum_i (d_i / D) * i> * (p_minus / D)^sigma,

where sigma is the signature of the linking matrix, computed exactly by
rational congruence diagonalization.  The chain evaluation is the genus-1
word <chain> = D^-k q T^n_1 S~ T^n_2 ... S~ T^n_k q^T (Kirby-Melvin, Invent.
Math. 105, 1991), q the row of quantum dimensions and T = diag(theta_i): at
an internal component the d_i of the Kirby color cancels the 1/d_i of the
Hopf contraction, so no element is inverted.
Anchors tau(S^3) = 1/D and tau(S^1 x S^2) = 1 hold exactly, as does
invariance under adding a split +-1-framed unknot (a blow-up), because
p_plus p_minus = D^2 exactly.

The same lens spaces arise from genus-1 Heegaard words s t^p s; the two
routes agree in absolute value (the Heegaard normalization is only fixed up
to a power of kappa = p_minus / D), which is checked exactly by comparing
the squared norms x * conj(x).  Chains and Heegaard words are walked by
cycmatrix._walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import CycNumber
from .cycmatrix import CycMatrix, _Letter, _normalize, _product, _storage, _walk
from .levels import sl2_mul
from .modular_data import ModularData, rho_genus1

__all__ = [
    "ChainSurgery",
    "InvariantValue",
    "signature",
    "omega_chain_bracket",
    "tau",
    "tau_union",
    "connected_sum",
    "kappa",
    "heegaard_word_matrix",
    "heegaard_tau",
    "lens_word",
    "lens_routes_agree",
    "norm_survey",
    "LENS_WORD_SIGN",
    "MAX_SURVEY_LEN",
]

# longest word length norm_survey accepts
MAX_SURVEY_LEN = 20

# rows norm_survey multiplies by one stacked product, bounding its memory
_SURVEY_ROWS = 64


@dataclass(frozen=True)
class ChainSurgery:
    """Framings of a linear unknot chain; the empty chain is S^3."""

    framings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "framings", tuple(int(n) for n in self.framings))

    def linking_matrix(self):
        k = len(self.framings)
        m = [[0] * k for _ in range(k)]
        for i, n in enumerate(self.framings):
            m[i][i] = n
            if i + 1 < k:
                m[i][i + 1] = m[i + 1][i] = 1
        return m


@dataclass(frozen=True)
class InvariantValue:
    value: CycNumber
    complex_value: complex
    norm: float

    @staticmethod
    def of(value: CycNumber) -> "InvariantValue":
        z = value.embed()
        return InvariantValue(value=value, complex_value=z, norm=abs(z))


def signature(matrix) -> int:
    """Signature of a symmetric integer (or rational) matrix by exact
    congruence diagonalization: no floats, no eigenvalues."""
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    for i in range(n):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if off is None:
                    continue  # zero row/column: a zero eigenvalue
                # add row/col `off` into i: new diagonal is 2 m[i][off] != 0
                for j in range(n):
                    m[i][j] += m[off][j]
                for row in m:
                    row[i] += row[off]
        piv = m[i][i]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / piv
                for t in range(n):
                    m[j][t] -= f * m[i][t]
                for row in m:
                    row[j] -= f * row[i]
    return pos - neg


def _first_row(m: CycMatrix) -> CycMatrix:
    """Row 0 of m as a 1 x cols matrix."""
    return CycMatrix._from_array(m.field, m.arr[:1], m.den)


def omega_chain_bracket(md: ModularData, chain: ChainSurgery) -> CycNumber:
    """<chain> = D^-k q T^n_1 S~ ... S~ T^n_k q^T: entry 0 of the row q walked
    through the integral letters T^n_j S~ (T = rho(t)^-1, S~ e_0 = q^T),
    times D^-k; the empty chain reads d_0 = 1."""
    s, t = _Letter(md.s_tilde), _Letter(rho_genus1(md.r)[1])
    runs = [run for n in chain.framings for run in ((t, -n), (s, 1))]
    row = _walk(_first_row(md.s_tilde), runs)
    return row[0, 0] * md.global_dim_inv ** len(chain.framings)


def kappa(md: ModularData) -> CycNumber:
    """The framing-anomaly root of unity p_minus / D."""
    return md.p_minus * md.global_dim_inv


def _kappa_power(md: ModularData, sigma: int) -> CycNumber:
    """kappa^sigma.  kappa is a root of unity, so a negative power is a
    power of its conjugate and needs no inversion."""
    k = kappa(md)
    return k ** sigma if sigma >= 0 else k.conj() ** -sigma


def tau(md: ModularData, chain: ChainSurgery) -> InvariantValue:
    """(1/D) <chain> (p_minus/D)^sigma, all factors exact: the split union
    of the one chain."""
    return tau_union(md, (chain,))


def tau_union(md: ModularData, chains) -> InvariantValue:
    """tau of the split union of chains inside one S^3 (the connected sum of
    the pieces): brackets multiply and signatures add under one global 1/D."""
    bracket = md.field.one
    sigma = 0
    for c in chains:
        bracket = bracket * omega_chain_bracket(md, c)
        sigma += signature(c.linking_matrix())
    value = md.global_dim_inv * bracket * _kappa_power(md, sigma)
    return InvariantValue.of(value)


def connected_sum(t1: InvariantValue, t2: InvariantValue, md: ModularData) -> InvariantValue:
    return InvariantValue.of(md.global_dim * t1.value * t2.value)


# ---------------------------------------------------------------------------
# genus-1 Heegaard route

# Pinned by calibration (tests/test_mfld3.py): the chain (p) and the
# word s t^(sign*p) s agree in norm for either sign, and p = +1 reproduces
# tau(S^3); the positive convention is the one we keep.
LENS_WORD_SIGN = 1


def _heegaard_runs(md: ModularData, word: str) -> list:
    """The (letter, exponent) runs of a word over {s, t, S, T} (capitals are
    inverses), left to right, whitespace ignored.  Each run of t/T is one
    run of the diagonal rho(t) to its net exponent, read off the power
    table; rho(s) is an exact involution, so it serves as its own inverse."""
    letters = "".join(word.split())
    for ch in letters:
        if ch not in "sStT":
            raise ValueError(f"word letter {ch!r} not in {{s, t, S, T}}")
    rho_s, rho_t = rho_genus1(md.r)
    s, t = _Letter(rho_s), _Letter(rho_t)
    return [
        (s, 1) if run in "sS" else (t, run.count("t") - run.count("T"))
        for run in re.findall("[sS]|[tT]+", letters)
    ]


def heegaard_word_matrix(md: ModularData, word: str) -> CycMatrix:
    """Product of rho-images for a word over {s, t, S, T}, applied left to
    right (see _heegaard_runs); the identity for the empty word."""
    out = _walk(None, _heegaard_runs(md, word))
    return CycMatrix.identity(md.field, len(md.labels)) if out is None else out


def _heegaard_entry(md: ModularData, word: str) -> CycNumber:
    """<e_0, rho(word) e_0>, the word walked from the row e_0."""
    e_0 = _first_row(CycMatrix.identity(md.field, len(md.labels)))
    return _walk(e_0, _heegaard_runs(md, word))[0, 0]


def heegaard_tau(md: ModularData, word: str) -> float:
    """|<e_0, rho(word) e_0>|: the genus-1 Heegaard invariant up to the
    kappa-power ambiguity of the handlebody vector."""
    return abs(_heegaard_entry(md, word).embed())


def lens_word(p: int, sign: int = LENS_WORD_SIGN) -> str:
    e = sign * p
    return "s" + ("t" if e >= 0 else "T") * abs(e) + "s"


def lens_routes_agree(md: ModularData, p: int, sign: int = LENS_WORD_SIGN) -> bool:
    """Exact two-route check for L(p, 1): |tau| of the chain (p) squared
    equals |<e_0, rho(lens_word(p, sign)) e_0>| squared, both as x * conj(x)
    in Q(zeta_4r).  Both sides equal D^-2 sum_j d_j^2 theta_j^(-+p) up to
    kappa^sigma, that is, conjugates: the check is that the chain's row walk
    agrees with the dense product path of heegaard_word_matrix."""
    lhs = tau(md, ChainSurgery((p,))).value
    rhs = heegaard_word_matrix(md, lens_word(p, sign))[(0, 0)]
    return lhs * lhs.conj() == rhs * rhs.conj()


def norm_survey(md: ModularData, max_word_len: int) -> dict:
    """All |<e_0, rho(w) e_0>| over words w in {s, t} of length at most
    max_word_len.  Words reaching the same projective class give the same
    norm, so the survey walks PSL2(F_r), 2 x 2 matrices mod r up to sign,
    breadth-first from I by right multiplication with g_s = (0, r-1, 1, 0)
    and g_t = (1, 1, 0, 1), to the depth max_word_len or until no new class
    appears.  Each class carries only row 0 of its image under the linear
    lift (m_s, m_t) with identify_group's scalars, row(w g) = row(w) m_g,
    in stacked products of at most _SURVEY_ROWS rows per level and
    generator; the lift scales rho by roots of unity, so x * conj(x) of
    its entry 0, the bucket key, is that of rho(w).  The keying rests on
    identify_group's certificate (else ArithmeticError): the lift satisfies
    the relators of SL2(F_r) at (m_t, m_s) and the projective kernel is the
    center, so +-M -> the class of its lift up to sign is a bijection, and
    the distinct-value count is bounded by the certified order."""
    from .finite_image import identify_group, linear_lift

    if max_word_len > MAX_SURVEY_LEN:
        raise ValueError(f"survey capped at word length {MAX_SURVEY_LEN}")
    if max_word_len < 0:
        raise ValueError("survey word length must be non-negative")
    r, field = md.r, md.field
    found = identify_group(r)
    closure_order = found["order"]
    if closure_order is None:
        raise ArithmeticError(f"no certificate that the genus-1 image at r={r} is PSL2(F_r)")
    lift = [CycNumber.from_json(found["linear_lift"][k]) for k in ("lambda_s", "lambda_t")]
    gens = tuple(zip(((0, r - 1, 1, 0), (1, 1, 0, 1)), linear_lift(r, lift)))

    buckets = {}  # exact |x|^2 -> [|x| of its first class, rounded; class count]
    level, depth = [(1, 0, 0, 1)], 0  # the newest classes and their word length
    seen = set(level)
    rows = CycMatrix.identity(field, len(md.labels)).arr[None, :1]  # rows 0 of their lifts
    dens = np.ones(1, dtype=object)
    while True:
        for num, den in zip(rows[:, 0, 0].tolist(), dens.tolist()):
            x = CycNumber(field, num, den)
            buckets.setdefault(x * x.conj(), [round(abs(x.embed()), 12), 0])[1] += 1
        if depth == max_word_len:
            break
        nxt, parts = [], []
        for g, m in gens:
            pick = []  # the classes whose product by g is new
            for i, w in enumerate(level):
                wg = sl2_mul(w, g, r)
                key = min(wg, tuple(-v % r for v in wg))
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
                    pick.append(i)
            for at in range(0, len(pick), _SURVEY_ROWS):
                block = pick[at : at + _SURVEY_ROWS]
                parts.append(_normalize(_product(field, rows[block], m.arr), dens[block] * m.den))
        if not nxt:
            break
        level, depth = nxt, depth + 1
        rows = _storage(np.concatenate([a for a, _ in parts]))
        dens = np.concatenate([q for _, q in parts])

    histogram = sorted(buckets.values())
    values = [v for v, _ in histogram]
    return {
        "r": md.r,
        "max_word_len": max_word_len,
        "classes_reached": len(seen),
        "distinct_value_count": len(values),
        "closure_order": closure_order,
        "bounded_by_closure": len(values) <= closure_order,
        "saturation_length": depth,
        "values": values,
        "histogram": {str(v): c for v, c in histogram},
    }
