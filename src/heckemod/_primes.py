"""Small integer helpers shared across the package.

Sizes here are mostly tiny (primes below a few thousand, divisors of
Hecke indices).  `is_prime` also vets moduli ell as large as 2^61 - 1,
so it runs a deterministic Miller-Rabin test past trial division.
`to_decimal` and `from_decimal` convert integers past Python's
int-string limit.
"""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _SMALL_PRIMES
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n, decided without guessing.

    Trial division by the 13 primes up to 41 decides n < 43^2.  Past
    that, a strong Miller-Rabin test to those bases is deterministic
    below _MILLER_RABIN_LIMIT; n at or above it raises ValueError.
    """
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 1681:
        return n > 1
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError("%d is too large for the deterministic primality test" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(n: int, label: str) -> None:
    if not is_prime(n):
        raise ValueError("%s = %d is not prime" % (label, n))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (simple sieve)."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= bound:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_power_sum(n: int, e: int) -> int:
    """sigma_e(n) = sum of d**e over positive divisors d of n."""
    return sum(d ** e for d in divisors(n))


def minimal_period(seq):
    """Smallest P with seq[i] == seq[i+P] across the whole window.

    Demands at least two full periods inside seq (P <= len(seq) // 2);
    returns None when no such P exists.
    """
    n = len(seq)
    for p in range(1, n // 2 + 1):
        if all(seq[i] == seq[i + p] for i in range(n - p)):
            return p
    return None


def to_decimal(n: int) -> str:
    """str(n), split into pieces short enough for any int-string limit (at least 640 digits)."""
    if n.bit_length() < 1990:  # under 600 digits
        return str(n)
    m = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(abs(n), 10**m)
    return ("-" if n < 0 else "") + to_decimal(high) + to_decimal(low).zfill(m)


def from_decimal(s: str) -> int:
    """int(s) for a decimal string, split like to_decimal."""
    if len(s) < 600:
        return int(s)
    m, sign = len(s) // 2, -1 if s[0] == "-" else 1
    return from_decimal(s[:m]) * 10 ** (len(s) - m) + sign * from_decimal(s[m:])
