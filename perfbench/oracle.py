"""Expected values computed without gregory, from sympy and the definitions.

The benchmark checks every value gregory emits against this module.  It never
imports gregory: signed Stirling numbers of the first kind come from expanding
the falling factorial x(x-1)...(x-n+1) = sum_k s(n,k) x^k in sympy's ZZ[x],
harmonic numbers from ``sympy.harmonic``, and the Gregory coefficients from
the integral b_n = (1/n!) * integral_0^1 x(x-1)...(x-n+1) dx, taken termwise.

A key names one value or one list of values:

    ["s", n, k]     s(n,k)                     ["s_row", n]  s(n,0..n)
    ["a", n, k]     a(n,k) = (-1)^(n+k-1) (k-1)! s(n,k-1)
    ["a_row", n]    a(n,2..n+1)                ["deriv", n]  (-1)^k k! s(n,k), k=1..n
    ["H", n]        H(n)                       ["b", n]      b_n

and its expected value is the sha256 digest of the canonical text: the values
as exact integers or reduced fractions, one per line.  Values gregory prints
are digested as printed, so an unreduced fraction does not match.

Run as a script, it reads a JSON list of keys on stdin and writes the JSON
list of their digests on stdout, in the same order.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial

# b_0..b_8 from the literature (Gregory coefficients of x/ln(1+x)); the
# oracle refuses to answer if its own construction does not reproduce them.
KNOWN_B = {
    0: "1",
    1: "1/2",
    2: "-1/12",
    3: "1/24",
    4: "-19/720",
    5: "3/160",
    6: "-863/60480",
    7: "275/24192",
    8: "-33953/3628800",
}


def digest(values) -> str:
    """sha256 of a list of ints, Fractions or their printed strings, one per line."""
    text = "\n".join(map(str, values))
    return hashlib.sha256(text.encode()).hexdigest()


class Oracle:
    def __init__(self):
        from sympy import ZZ, harmonic
        from sympy.polys.rings import ring

        self._harmonic = harmonic
        ring_zz, self._x = ring("x", ZZ)
        self._rows = [[1]]
        self._poly = ring_zz(1)

    def row(self, n):
        """s(n,0), ..., s(n,n) as Python ints."""
        while len(self._rows) <= n:
            self._poly *= self._x - (len(self._rows) - 1)
            self._rows.append([int(c) for c in reversed(self._poly.to_dense())])
        return self._rows[n]

    def a_row(self, n):
        s = self.row(n)
        return [(-1) ** (n + k - 1) * factorial(k - 1) * s[k - 1] for k in range(2, n + 2)]

    def b(self, n):
        total = sum((Fraction(c, k + 1) for k, c in enumerate(self.row(n))), Fraction(0))
        return total / factorial(n)

    def values(self, key):
        kind, n, *rest = key
        if kind == "s":
            return [self.row(n)[rest[0]]]
        if kind == "s_row":
            return self.row(n)
        if kind == "a":
            return [self.a_row(n)[rest[0] - 2]]
        if kind == "a_row":
            return self.a_row(n)
        if kind == "deriv":
            s = self.row(n)
            return [(-1) ** k * factorial(k) * s[k] for k in range(1, n + 1)]
        if kind == "H":
            h = self._harmonic(n)
            return [Fraction(int(h.p), int(h.q))]
        if kind == "b":
            return [self.b(n)]
        raise ValueError("unknown oracle key %r" % (key,))

    def self_check(self):
        for n, text in KNOWN_B.items():
            if str(self.b(n)) != text:
                raise AssertionError("oracle b_%d = %s, literature says %s" % (n, self.b(n), text))


def query(keys):
    """Digests for a list of keys, computed in a separate interpreter so that
    sympy never loads into the process being measured."""
    if not keys:
        return []
    out = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps(keys),
        capture_output=True,
        text=True,
        check=True,
        timeout=150,
    )
    return json.loads(out.stdout)


def main():
    keys = json.load(sys.stdin)
    oracle = Oracle()
    oracle.self_check()
    json.dump([digest(oracle.values(key)) for key in keys], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
