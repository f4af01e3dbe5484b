"""Finite p-group quotients of a uniform tower group.

The infinite group is never materialized: a :class:`TowerGroupSpec` describes
a compatible family of finite quotients ``G^(n)`` together with projections,
which is all the level computations need.  Two kinds are supported:

* ``abelian`` — ``G^(n) = (Z/p^n)^l``;
* ``metacyclic`` — ``G^(n) = Z/p^n ⋊ Z/p^n`` with relation ``τστ⁻¹ = σ^u``
  for a unit ``u ≡ 1 (mod p)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def identity(self, n: int) -> "GroupElement":
        if self.kind == "abelian":
            return GroupElement(n, (0,) * self.rank)
        return GroupElement(n, (0, 0))

    def generator(self, index: int, n: int) -> "GroupElement":
        if not 0 <= index < self.num_generators:
            raise ValueError(f"invalid generator index {index}")
        if n == 0:
            return self.identity(0)
        if self.kind == "abelian":
            exps = [0] * self.rank
            exps[index] = 1
            return GroupElement(n, tuple(exps))
        return GroupElement(n, (1, 0) if index == 0 else (0, 1))

    def multiply(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        self._check_same_level(a, b)
        mod = self.p ** a.level
        if mod == 1:
            return self.identity(0)
        if self.kind == "abelian":
            return GroupElement(
                a.level,
                tuple((x + y) % mod for x, y in zip(a.data, b.data)))
        i1, j1 = a.data
        i2, j2 = b.data
        u = self.unit % mod
        return GroupElement(
            a.level, ((i1 + i2 * pow(u, j1, mod)) % mod, (j1 + j2) % mod))

    def inverse(self, a: "GroupElement") -> "GroupElement":
        mod = self.p ** a.level
        if mod == 1:
            return self.identity(0)
        if self.kind == "abelian":
            return GroupElement(a.level, tuple((-x) % mod for x in a.data))
        i, j = a.data
        u = self.unit % mod
        # (σ^i τ^j)^{-1} = σ^{-i u^{-j}} τ^{-j}; u is a unit mod p^n
        u_inv = pow(u, -1, mod)
        return GroupElement(a.level, ((-i * pow(u_inv, j, mod)) % mod, (-j) % mod))

    def power(self, a: "GroupElement", k: int) -> "GroupElement":
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity(a.level)
        base = a
        while k:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    def project(self, a: "GroupElement", m: int) -> "GroupElement":
        if m > a.level:
            raise ValueError(f"cannot project level {a.level} up to level {m}")
        mod = self.p ** m
        return GroupElement(m, tuple(x % mod for x in a.data))

    def word_evaluate(self, n: int,
                      word: Sequence[tuple[int, int]]) -> "GroupElement":
        """Evaluate a generator word ``[(gen index, exponent), ...]``."""
        result = self.identity(n)
        for index, exponent in word:
            result = self.multiply(
                result, self.power(self.generator(index, n), exponent))
        return result

    def check_enumerable(self, n: int) -> None:
        """Raise BoundExceededError when |G^(n)| is past the enumeration
        bound."""
        if self.order_exceeds(n, _ENUM_BOUND):
            raise BoundExceededError(
                f"group order {self.p}^{n * self.dimension} exceeds "
                f"enumeration bound {_ENUM_BOUND}")

    def enumerate_group(self, n: int) -> list["GroupElement"]:
        self.check_enumerable(n)
        mod = self.p ** n
        width = self.rank if self.kind == "abelian" else 2
        return [GroupElement(n, exps)
                for exps in itertools.product(range(mod), repeat=width)]

    def is_generating_set(self, elements: Iterable["GroupElement"]) -> bool:
        """Whether level-1 elements generate ``G^(1) = G/G^p``.

        For a powerful tower group the Frattini quotient is ``G/G^p``, so
        spanning ``G^(1)`` as an F_p vector space is equivalent to
        topological generation of the whole tower.
        """
        vectors = []
        for g in elements:
            if g.level != 1:
                raise ValueError("generation test requires level-1 elements")
            vectors.append([x % self.p for x in g.data])
        return _fp_rank(vectors, self.p) == self.dimension

    def _check_same_level(self, a: "GroupElement", b: "GroupElement") -> None:
        if a.level != b.level:
            raise ValueError(
                f"level mismatch: {a.level} vs {b.level}")


@dataclass(frozen=True)
class GroupElement:
    """Normal-form element of ``G^(n)``: exponent vector or (i, j) pair."""

    level: int
    data: tuple[int, ...]


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
