"""Level helpers shared by every module: primality, prime divisors, primitive
roots mod p, the level check (r an odd prime >= 5), the SO(3) label set, the
levels with character tables and products in SL2(F_r).  Plain integers only,
so that a caller which needs nothing more never loads numpy."""

from __future__ import annotations

__all__ = [
    "is_prime", "is_odd_prime", "prime_divisors", "so3_labels", "sl2_mul", "SUPPORTED_RANGE"
]

# levels whose SL2(F_r) character tables sl2_char builds
SUPPORTED_RANGE = (5, 13)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed bases 2..37, which is deterministic for
    n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(r: int) -> bool:
    return r % 2 == 1 and is_prime(r)


def prime_divisors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def _primitive_root(p):
    """Smallest generator of F_p^*, p prime."""
    fac = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError("no primitive root found")


def _require_level(r: int):
    if not (is_odd_prime(r) and r >= 5):
        raise ValueError("r must be an odd prime >= 5")


def so3_labels(r: int):
    return list(range(0, r - 2, 2))


def sl2_mul(x, y, r):
    """Product of 2x2 matrices over F_r stored as (a, b, c, d) tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % r,
        (a * f + b * h) % r,
        (c * e + d * g) % r,
        (c * f + d * h) % r,
    )
