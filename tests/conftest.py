import re

import pytest

PRIMES = (5, 7, 11, 13)


@pytest.fixture
def break_certificate(monkeypatch):
    """break_certificate(r, how) patches finite_image so that one certificate
    of the level-r pair fails: rho(t) -> rho(t)^2, s and t swapped, the lift
    scalar lambda_t times zeta_r, or lambda_s negated (which keeps
    lambda_s^4 = 1 but breaks lambda_s lambda_t^3 mu = 1)."""
    import so3tqft.finite_image as finite_image

    def apply(r, how):
        rho_s, rho_t = finite_image.rho_genus1(r)
        if how in ("lambda_t_times_zeta_r", "lambda_s_negated"):
            lift = finite_image._lift_scalars
            zeta_r = rho_s.field.zeta_power(4)

            def tampered(*args):
                lam_s, lam_t = lift(*args)
                if how == "lambda_s_negated":
                    return -lam_s, lam_t
                return lam_s, lam_t * zeta_r

            monkeypatch.setattr(finite_image, "_lift_scalars", tampered)
        else:
            pair = (rho_s, rho_t @ rho_t) if how == "t_squared" else (rho_t, rho_s)
            monkeypatch.setattr(finite_image, "rho_genus1", lambda r: pair)

    return apply

CRITERION_TITLES = {
    "01": "odd-block identification identities, exact",
    "02": "intertwiner relation for generator pairs, exact",
    "03": "gluing dimensions and power-sum agreement",
    "04": "twist multiplicities",
    "05": "genus-growth margins",
    "06": "finite projective image enumeration",
    "07": "character theory",
    "07b": "Borel irreducible degree set as stated",
    "08": "chain-surgery invariants and the lens-space oracle",
    "09": "genus-1 norm survey is finite and bounded",
    "10": "foundation properties",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\w+)", rep.nodeid)
            if m:
                key = m.group(1).split("_")[0]
                prev = outcomes.get(key, "passed")
                outcomes[key] = status if status != "passed" else prev
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(outcomes):
        status = "PASS" if outcomes[key] == "passed" else "FAIL"
        title = CRITERION_TITLES.get(key, "")
        terminalreporter.write_line(f"criterion {key}: {status}  {title}")
