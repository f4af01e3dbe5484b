"""Finite p-group quotients of a uniform tower group.

The infinite group is never materialized: a :class:`TowerGroupSpec` describes
the compatible family of finite quotients ``G^(n)``, which is all the level
computations need.  Two kinds are supported:

* ``abelian`` — ``G^(n) = (Z/p^n)^l``;
* ``metacyclic`` — ``G^(n) = Z/p^n ⋊ Z/p^n`` with relation ``τστ⁻¹ = σ^u``
  for a unit ``u ≡ 1 (mod p)``.

An element of G^(n) is its integer normal form, a tuple: the exponent vector
mod p^n, or the pair (i, j) of ``σ^i τ^j``; the projection G^(n) → G^(m)
reduces it mod p^m.  There is no other element encoding.  This module is
the only one that encodes normal forms as indices
(`TowerGroupSpec.right_translation`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundExceededError

_ENUM_BOUND = 3 ** 6
_PRIME_BOUND = 1 << 40  # p is checked by trial division up to √p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_valuation(value: int, p: int) -> int:
    """v_p(value) for a nonzero integer."""
    if value == 0:
        raise ValueError("p-adic valuation of 0 is infinite")
    v = 0
    value = abs(value)
    while value % p == 0:
        value //= p
        v += 1
    return v


@dataclass(frozen=True)
class TowerGroupSpec:
    """Description of the quotient tower ``G^(1) ← G^(2) ← ...``."""

    kind: str  # "abelian" | "metacyclic"
    p: int
    rank: int = 1  # number of Z/p^n factors (abelian kind)
    action_unit: int | None = None  # metacyclic u; defaults to 1 + p

    def __post_init__(self) -> None:
        if self.kind not in ("abelian", "metacyclic"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.p >= _PRIME_BOUND:
            raise BoundExceededError(f"p = {self.p} exceeds bound 2^40")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.kind == "abelian":
            if self.rank < 1:
                raise ValueError("abelian rank must be >= 1")
            if self.rank > _ENUM_BOUND:
                # every group element is a tuple of length rank
                raise BoundExceededError(
                    f"abelian rank {self.rank} exceeds bound {_ENUM_BOUND}")
        else:
            u = self.unit
            if u % self.p != 1:
                raise ValueError(
                    f"metacyclic action unit must be ≡ 1 mod p, got {u}")

    @property
    def unit(self) -> int:
        if self.kind != "metacyclic":
            raise ValueError("action unit only defined for metacyclic kind")
        return self.action_unit if self.action_unit is not None else 1 + self.p

    @property
    def num_generators(self) -> int:
        return self.rank if self.kind == "abelian" else 2

    @property
    def dimension(self) -> int:
        """Dimension of the tower group (rank of each filtration quotient)."""
        return self.rank if self.kind == "abelian" else 2

    def order(self, n: int) -> int:
        if n < 0:
            raise ValueError("level must be >= 0")
        return self.p ** (n * self.dimension)

    def order_exceeds(self, n: int, bound: int) -> bool:
        """Whether |G^(n)| = p^(n·d) > bound, building p^(n·d) only when
        n·d < bound.bit_length(), since otherwise p^(n·d) ≥ 2^(n·d) > bound."""
        exponent = n * self.dimension
        return exponent >= bound.bit_length() or self.p ** exponent > bound

    def multiply(self, n: int, a: tuple[int, ...],
                 b: tuple[int, ...]) -> tuple[int, ...]:
        """a·b in G^(n), for a and b given by their normal forms."""
        mod = self.p ** n
        if self.kind == "abelian":
            return tuple((x + y) % mod for x, y in zip(a, b))
        (i1, j1), (i2, j2) = a, b
        return ((i1 + i2 * pow(self.unit, j1, mod)) % mod, (j1 + j2) % mod)

    def normal_form(self, n: int,
                    word: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        """The normal form in G^(n) of a generator word ``[(gen index,
        exponent), ...]``, in integers: the exponent vector mod p^n, or the
        pair (i, j) of σ^i τ^j, where (σ^i τ^j)·σ^x = σ^(i + x·u^j) τ^j.

        u^j mod p^n depends on j mod p^n only, since u ≡ 1 mod p has order
        dividing p^(n−1).  At level 1 both kinds give the exponent sums
        mod p, since there u ≡ 1.
        """
        count = self.num_generators
        for index, _ in word:
            if not 0 <= index < count:
                raise ValueError(f"invalid generator index in {list(word)}")
        mod = self.p ** n
        if self.kind == "abelian":
            exps = [0] * count
            for index, exponent in word:
                exps[index] += exponent
            return tuple([x % mod for x in exps])
        i = j = 0
        for index, exponent in word:
            if index == 0:
                i = (i + exponent * pow(self.unit, j, mod)) % mod
            else:
                j = (j + exponent) % mod
        return (i, j)

    def right_translation(self, n: int, a: tuple[int, ...]) -> list[int]:
        """g ↦ g·a on G^(n), for a given by its normal form, as an index list.

        Entry k is the index of g_k·a, where g_k is element k of
        `enumerate_group(n)`.  That order is the mixed-radix order of the
        normal forms with radix p^n and the first coordinate most
        significant, so (x_1, ..., x_l) has index Σ x_t·p^(n·(l−t)).  The
        abelian translation adds a coordinatewise mod p^n; the metacyclic
        one takes (i, j) to (i + a_1·u^j, j + a_2) mod p^n.
        """
        mod = self.p ** n
        # x ↦ x + a mod p^n, for 0 ≤ a < p^n, as two runs
        shifts = [[*range(x, mod), *range(x)] for x in a]
        if self.kind == "abelian":
            translation = shifts[0]
            for shifted in shifts[1:]:
                translation = [k * mod + y for k in translation
                               for y in shifted]
            return translation
        u = self.unit % mod
        column, power = [], 1
        for j in range(mod):
            column.append(a[0] * power % mod)
            power = power * u % mod
        return [(i + c) % mod * mod + t for i in range(mod)
                for c, t in zip(column, shifts[1])]

    def check_enumerable(self, n: int) -> None:
        """Raise BoundExceededError when |G^(n)| is past the enumeration
        bound."""
        if self.order_exceeds(n, _ENUM_BOUND):
            raise BoundExceededError(
                f"group order {self.p}^{n * self.dimension} exceeds "
                f"enumeration bound {_ENUM_BOUND}")

    def enumerate_group(self, n: int) -> list[tuple[int, ...]]:
        """The normal forms of G^(n) in mixed-radix order, the first
        coordinate most significant."""
        self.check_enumerable(n)
        return list(itertools.product(range(self.p ** n),
                                      repeat=self.num_generators))


def _fp_rank(vectors: list[list[int]], p: int) -> int:
    """Rank of a set of vectors over F_p (Gaussian elimination)."""
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
