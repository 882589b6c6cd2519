"""A modular certificate of every route's b_0..b_800.

The coefficient of x^(n+1) in x/ln(1+x) * ln(1+x) = x gives, for n >= 1,

    sum_{k=0}^{n} b_k (-1)^(n-k) / (n+1-k) = 0.

The k = n term is b_n / 1, so these identities fix b_0..b_N one after the
other, and mod a prime p > N + 1 they fix every b_n mod p: each denominator
of a b_n and each 1/j here has prime factors at most n + 1, so all are
invertible mod p.  A wrong value passes only if p divides the numerator of
its error, for both primes at once.  The check shares no row, kernel or
series code with the routes.
"""

import functools
from fractions import Fraction
from operator import mul

import pytest

from gregory.bernoulli import ROUTES, bernoulli2_values

MAX_N = 800
PRIMES = (2**61 - 1, 2**89 - 1)
PRIME_IDS = ("M61", "M89")


@functools.lru_cache(maxsize=None)
def _column(method):
    """b_0..b_MAX_N by one route; b_0 = 1 and b_1 = 1/2 are literals, since
    not every route is stated below n = 2."""
    return (Fraction(1), Fraction(1, 2), *bernoulli2_values(method, MAX_N, start=2))


def _first_failure(column, p):
    """The first n >= 1 whose identity fails mod p, or None."""
    residues = [b.numerator % p * pow(b.denominator, -1, p) % p for b in column]
    # weight[j] = (-1)^(j-1) / j mod p, the weight of b_k with j = n + 1 - k
    weight = [0] + [pow(j if j % 2 else -j, -1, p) for j in range(1, len(column) + 1)]
    for n in range(1, len(column)):
        if sum(map(mul, residues[: n + 1], weight[n + 1 : 0 : -1])) % p:
            return n
    return None


@pytest.mark.parametrize("method", list(ROUTES))
@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_column_is_certified(method, p):
    column = _column(method)
    assert len(column) == MAX_N + 1
    assert _first_failure(column, p) is None


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_certificate_catches_a_perturbed_value(p):
    column = list(_column(next(iter(ROUTES))))
    for error in (Fraction(1, 10**30), Fraction(1, column[793].denominator)):
        perturbed = column.copy()
        perturbed[793] += error
        assert _first_failure(perturbed, p) == 793


def test_certificate_catches_a_sign_error():
    column = list(_column(next(iter(ROUTES))))
    column[400] = -column[400]
    assert _first_failure(column, PRIMES[0]) == 400
