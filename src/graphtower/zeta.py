"""Ihara zeta functions, Artin-Ihara L-functions, and their identities.

ζ_X(u)⁻¹ is an integer determinant by Kronecker substitution, of sparse
rows built from the ends of the graph's edges; a cover X_n gives them
through ``voltage.cover_index_pairs`` and is never built, and level 0 is
the trivial cover, the base itself, read the same way.  The adjacency is
one plain dict {w: multiplicity} per vertex, and stays plain dicts through
the split, the Schur step and the packing.  For p = 2 and
n ≥ 1, G^(n) has a central element c of order 2, and left multiplication
by c is a fixed-point-free involution σ of X_n that commutes with
M = I − Au + (D − I)u².  ``cover_zeta_inverse``, the one cover route of
``zeta`` and of the factorization check, verifies σ on X_n's index pairs
and takes det M = det M₊ · det M₋, two determinants of half the size: M₊
is the matrix of X_n/σ, and M₋ gives each edge of X_n/σ that joins v to σw
the sign −1.  The split is one level deep; splitting X_n/σ again would
rebuild, character by character, the factorization that the check compares
against.  Before packing, one exact Schur complement takes out a set S of
pairwise non-adjacent loop-free vertices of one degree, found greedily,
when S holds at least half the vertices, as the fibre over a loop-free
base vertex does over a 2-vertex base.  On a bipartite graph every closed
walk has even length, so the determinant is even in u; there the rows are
conjugated by diag(u^colour(v)), a similarity, and packed as polynomials
in w = u², with about half the base-2^B digits.  The orbit norms below
take none of these steps, so a fault in one cannot pass the factorization
check on both sides.  Every cover determinant is checked against its tree
number: f(0) = 1, f(1) = 0 and 2(|E| − |V|) divides f'(1), or
ArithmeticError.  That check takes one more integer determinant per Galois
orbit of characters, the norm of the orbit's L-function, from the base
edges' level-n normal forms.  The per-character L-functions of
``l_functions`` take one integer polynomial determinant per Galois orbit
too, packed at u = 2^B and lifted to Z[x], and
``cyclotomic.galois_images`` reads every character of the orbit off it.
Every identity check below is an exact equality — never a float
comparison.

The L-functions, the interpolation check and ``fitting`` read the cover's
adjacency Σ_σ A(σ)·σ, where A(σ)_ij counts the edges between (v_i, 1) and
(v_j, σ) in X_n, off the base edges' level-n normal forms, as A_α (a test
reads it off the edges of an X_n built from group elements), all three
once per job, through the orbit driver ``grouprings.per_character``.
χ(a) is computed only by ``Character.exponent``.  ``l_functions`` and
the reduced norm of ``fitting`` reach A_α only through
``grouprings.character_adjacency``.  The orbit norms of ``artin_l_norm``
and the lift of ``grouprings.orbit_h_values`` read the exponents instead,
so the interpolation check's two sides do not share the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import eq
from typing import Sequence

from .cyclotomic import (CyclotomicInteger, euler_phi_prime_power,
                         galois_images, power_coordinates)
from .grouprings import (Character, Edges, character_adjacency, characters,
                         galois_orbits, l_rows, orbit_h_values, orbit_nrd,
                         per_character)
from .linalg import _unpack, det_int_poly_matrix, poly_product
from .voltage import (VoltageAssignment, check_derive_bounds,
                      cover_index_pairs, cover_involution)


@dataclass(frozen=True)
class ZetaData:
    """ζ_X(u)^{-1} = (1−u²)^{−chi} · det_part(u)."""

    chi: int
    det_part: tuple[int, ...]  # ascending u-coefficients


def cover_zeta_inverse(alpha: VoltageAssignment, n: int) -> ZetaData:
    """ζ_{X_n}(u)⁻¹, the one cover route of ``zeta`` and of the
    factorization check: ``ihara_zeta_inverse`` of the index pairs of
    ``cover_index_pairs``, split by ``voltage.cover_involution`` for p = 2
    and n ≥ 1.

    The split is one level deep.  X_n/σ is a cover of X too, and splitting
    it again, down to level 0, would take the determinant apart character
    by character, which is the factorization the check compares against.
    The split reads only the cover's index pairs and one vertex
    permutation, which it verifies; it reads no character, no exponent of
    a character and no power of ζ, so the orbit norms still share no step
    with the cover side.
    """
    num_vertices, pairs = cover_index_pairs(alpha, n)
    return ihara_zeta_inverse(num_vertices, pairs, cover_involution(alpha, n))


def ihara_zeta_inverse(num_vertices: int, pairs: Sequence[tuple[int, int]],
                       involution: Sequence[int] | None = None) -> ZetaData:
    """ζ_X(u)⁻¹ of the graph with vertices 0..num_vertices − 1 and one edge
    per pair (i, j) of end indices: the exact determinant f of
    M = I − Au + (D−I)u², and χ = V − E.

    A is read off the pairs: each end of an edge adds 1 to the entry
    towards the other end, so a loop adds 2 on the diagonal.  With
    ``involution``, a vertex permutation σ, f is det M₊ · det M₋, the
    halves of `_involution_halves`; without it, f is det M.  Either way
    `_det_part` takes the determinants.

    f is checked in one pass over its coefficients: f(0) = 1, f(1) =
    det(D − A) = 0 on a nonempty graph, and 2(|E| − |V|) divides f'(1),
    which is 2(|E| − |V|)·κ with κ the number of spanning trees
    (Hashimoto; Northshield), so f'(1) = 0 when |E| = |V|.  A failure
    raises ArithmeticError.
    """
    neighbours: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    for i, j in pairs:
        neighbours[i][j] = neighbours[i].get(j, 0) + 1
        neighbours[j][i] = neighbours[j].get(i, 0) + 1
    det_part = _det_part([neighbours] if involution is None else
                         _involution_halves(neighbours, involution))
    value = slope = 0
    for k, c in enumerate(det_part):
        value += c
        slope += k * c
    excess = 2 * (len(pairs) - num_vertices)
    if (det_part[:1] != (1,) or (value and num_vertices) or
            (slope % excess if excess else slope)):
        raise ArithmeticError("the Ihara determinant fails f(0) = 1, "
                              "f(1) = 0 or 2(|E| − |V|) | f'(1)")
    return ZetaData(num_vertices - len(pairs), det_part)


def _involution_halves(neighbours: Sequence[dict[int, int]],
                       sigma: Sequence[int]) -> list[list[dict[int, int]]]:
    """[A₊, A₋]: the adjacency of X/σ and its signed twin, for a
    fixed-point-free involution σ of the graph X with adjacency
    ``neighbours``, after σ is verified on that adjacency.  Every adjacency
    here is a list of plain dict rows {w: entry} with no zero entry.
    ArithmeticError is raised when σ is not a fixed-point-free involution
    of the vertices or does not map edges to edges, A(σv, σw) ≠ A(v, w):
    σ being a bijection, that is one dict comparison per vertex, of row σv
    with row v relabelled by σ, multiplicities included.

    Such a σ commutes with M = I − Au + (D − I)u², so in the basis
    e_r ± e_σr, r the least vertex of each orbit, M is block-diagonal and
    det M = det M₊ · det M₋ with M₊ = I − A₊u + (D − I)u² and M₋ the same
    with A₋.  Row r of A_± holds A(r, q) ± A(r, σq) at the orbit q: A₊
    is the adjacency of X/σ, where the edges v–σv of an orbit become a
    loop, and A₋ gives each edge r–σq the sign −1.  Both keep the degrees
    of X.  |A₋| ≤ A₊ entrywise, so A₋'s nonzero pattern lies inside A₊'s;
    A₋'s zero entries are dropped.
    """
    if len(sigma) != len(neighbours) or any(
            s == v or sigma[s] != v for v, s in enumerate(sigma)):
        raise ArithmeticError(
            "the cover involution is not a fixed-point-free involution")
    for v, row in enumerate(neighbours):
        if neighbours[sigma[v]] != {sigma[w]: a for w, a in row.items()}:
            raise ArithmeticError(
                "the cover involution does not map edges to edges")
    orbit = [0] * len(sigma)
    sign = [1] * len(sigma)
    reps = [v for v, s in enumerate(sigma) if v < s]
    for q, r in enumerate(reps):
        orbit[r] = orbit[sigma[r]] = q
        sign[sigma[r]] = -1
    plus, minus = [], []
    for r in reps:
        folded: dict[int, int] = {}
        signed: dict[int, int] = {}
        for w, a in neighbours[r].items():
            q = orbit[w]
            folded[q] = folded.get(q, 0) + a
            signed[q] = signed.get(q, 0) + sign[w] * a
        plus.append(folded)
        minus.append({q: a for q, a in signed.items() if a})
    return [plus, minus]


def _det_part(adjacencies: Sequence[Sequence[dict[int, int]]]
              ) -> tuple[int, ...]:
    """∏ det(I − Au + (D − I)u²) over the adjacencies A in the list, each
    a plain dict {column: entry} per row, with no zero entry, D the degrees of the first, whose
    nonzero pattern holds every other's; one adjacency, or the halves of
    `_involution_halves`.

    Before each determinant, M shrinks by one exact Schur complement.  S
    is a set of pairwise non-adjacent loop-free vertices of one degree d:
    the vertices of each degree are taken in order, each kept unless
    adjacent to one already kept, and S (``fibre`` below) is the largest
    set so found.  Then M_SS = c·I with c = 1 + (d−1)u², and when
    |S| ≥ |T|, T the other vertices,

        det M = c^(|S|−|T|) · det(c·M_TT − u²·A_TS·A_ST),

    with no division: entry (t, t′) of A_TS·A_ST sums the 2-paths t–s–t′
    through S, with edge multiplicity (and sign).  On a cover X_n this
    fires when the fibre over a loop-free base vertex covers half the
    vertices, as over any 2-vertex base with one loop-free vertex.  When
    |S| < |T|, S is taken empty and c = 1, and the rows below are those
    of M itself.

    The rows are sparse, {column: [u⁰..u⁴ coefficients]}.

    When the graph is 2-coloured by `_two_colouring` (no loop, no odd
    cycle), entry (t, x) is multiplied by u^(colour(t) − colour(x)).  That
    is P·M·P⁻¹ with P = diag(u^colour(v)), which keeps the determinant and
    commutes with the Schur step (M_SS = c·I is diagonal).  An edge joins
    two colours and a 2-path one colour, so with w = u² every entry
    becomes a polynomial in w: c·(1 + (d_t − 1)w) on the diagonal, −a·c
    for a edges from a colour-0 row, −a·c·w for a edges from a colour-1
    row, and −w times the 2-paths through S.  So the determinant is even in
    u, as the zeta function of a bipartite graph, whose closed walks all
    have even length, must be.  The w-coefficients are packed, which
    halves the degree of the packed entries and of the determinant, and
    the result is spread back onto the even powers of u.  The orbit norms
    of ``artin_l_norm`` do not take this step.

    The colouring and S are found once, on the first adjacency's pattern.
    They serve every adjacency whose pattern lies inside it: no entry
    joins two vertices of one colour, and S stays loop-free and pairwise
    non-adjacent, with the same degrees.
    """
    pattern = adjacencies[0]
    colour = _two_colouring(pattern)
    degrees = [sum(counts.values()) for counts in pattern]
    classes: dict[int, set[int]] = {}
    for v, counts in enumerate(pattern):
        if v not in counts:
            kept = classes.setdefault(degrees[v], set())
            if kept.isdisjoint(counts):
                kept.add(v)
    degree, fibre = max(classes.items(), key=lambda item: len(item[1]),
                        default=(1, set()))
    if 2 * len(fibre) < len(pattern):
        degree, fibre = 1, set()
    e = degree - 1  # c = 1 + e·u²
    rest = [t for t in range(len(pattern)) if t not in fibre]
    position = {t: k for k, t in enumerate(rest)}
    factors = []
    for neighbours in adjacencies:
        rows = []
        for t in rest:
            f = degrees[t] - 1
            row = {position[t]: [1, 0, f + e, 0, f * e]}
            for w, a in neighbours[t].items():
                if w in fibre:
                    for x, b in neighbours[w].items():
                        row.setdefault(position[x], [0] * 5)[2] -= a * b
                else:
                    entry = row.setdefault(position[w], [0] * 5)
                    entry[1] -= a
                    entry[3] -= a * e
            rows.append(row)
        if colour is not None:
            # entry (t, x) times u^(colour(t) − colour(x)) is even in u;
            # its coefficients of u⁰, u², u⁴ are those of w⁰, w¹, w²
            for t, row in zip(rest, rows):
                for x, entry in row.items():
                    row[x] = ([0] + entry)[1 - colour[t] + colour[rest[x]]::2]
        coeffs = det_int_poly_matrix(rows)
        if colour is not None:  # from w back to u: w^k = u^(2k)
            coeffs = [c for w_coeff in coeffs for c in (w_coeff, 0)][:-1]
        factors.append(coeffs)
        if e:  # times c^(|S|−|T|)
            factors += [(1, 0, e)] * (len(fibre) - len(rest))
    return tuple(factors[0]) if len(factors) == 1 else poly_product(factors)


def _two_colouring(neighbours: Sequence[dict[int, int]]) -> list[int] | None:
    """Colours 0 and 1 such that every edge joins two colours, by one
    depth-first search per component from its least vertex, coloured 0, over
    plain dict rows {w: multiplicity}; None when an edge joins one colour,
    as a loop or an odd cycle does."""
    colour: list[int | None] = [None] * len(neighbours)
    for root in range(len(colour)):
        if colour[root] is None:
            colour[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for w in neighbours[v]:
                    if colour[w] is None:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return None
    return colour


def artin_l_inverse(chi: Character, units: Sequence[int], edges: Edges,
                    degrees: Sequence[int]
                    ) -> list[tuple[CyclotomicInteger, ...]]:
    """Exact det parts of the Artin-Ihara L-functions of a Galois orbit:
    det(I − χ^a(A)u + (D − I)u²) for each unit a mod p^j in ``units``, χ
    of order p^j, as ascending u-coefficients in Z[ζ_{p^n}], n = χ's
    level, with no trailing zeros.  L(χ^a,u)^{-1} is (1−u²)^{−χ(X)} times
    it, χ(X) the Euler characteristic of the base.

    The base is given by its degrees and its edges (i, j, a), a the normal
    form of the edge's voltage at χ's level, as for ``artin_l_norm``.  The
    rows of ``grouprings.l_rows`` at u = 2^B lift the matrix to Z[x][u],
    with u packed into each x-coefficient, so one ``det_int_poly_matrix``
    gives Δ(x) with packed coefficients.
    ``galois_images`` is Z-linear, so it reads each conjugate's packed
    coordinates off Δ, and each splits into its signed base-2^B digits,
    the coordinates of the u-coefficients.
    """
    # The lift has ℓ1 norm at most S = ∏_i Σ_k ‖a_ik‖₁ over its x- and
    # u-coefficients, and so has its determinant.  Folding and permuting
    # do not raise the ℓ1 norm of a u-coefficient, and a coordinate reduced
    # modulo Φ is a difference of two folded ones, so no coordinate
    # exceeds S, and each fits in a signed digit of B bits.
    p, n = chi.spec.p, chi.level
    adjacency = character_adjacency(chi, edges)
    norms = [1 + abs(d - 1) for d in degrees]
    for (i, _), coords in adjacency.items():
        norms[i] += sum(map(abs, coords))
    bits = prod(norms).bit_length() + 1
    rows = l_rows(adjacency, degrees, 1 << bits)
    det_parts = []
    for image in galois_images(p, n, chi.order_level,
                               det_int_poly_matrix(rows), units):
        digits = [_unpack(c, bits) for c in image]
        det_parts.append(tuple(
            CyclotomicInteger(p, n, tuple(d[t] if t < len(d) else 0
                                          for d in digits))
            for t in range(max(map(len, digits)))))
    return det_parts


def l_functions(alpha: VoltageAssignment, n: int
                ) -> list[tuple[Character, tuple[CyclotomicInteger, ...]]]:
    """(χ, det part of L(χ,u)⁻¹) for every character χ of G^(n), in
    ``characters`` order, by one ``artin_l_inverse`` per Galois orbit of
    ``grouprings.per_character``, after the bounds of X_n, which is not
    built."""
    check_derive_bounds(alpha, n)
    return per_character(alpha, n, artin_l_inverse)


def artin_l_norm(chi: Character, edges: Edges,
                 degrees: Sequence[int]) -> tuple[int, ...]:
    """Norm of the det part of L(χ,u)⁻¹: the product of the det parts of
    L(χ^a,u)⁻¹ over the Galois orbit of χ, as one integer determinant.

    The base is given by its degrees and, per edge, the indices (i, j) of
    its ends and the normal form a of its voltage at χ's level n.  For χ
    of order p^j, I − χ(A)u + (D − I)u² is taken over Z[ζ_{p^j}] (in
    conductor p^n the norm would count each conjugate φ(p^n)/φ(p^j)
    times), and each entry becomes its φ(p^j)-square multiplication matrix
    over Z[u]: an edge adds the block of ζ^e at (i, j) and of ζ^−e at
    (j, i), e = ``chi.exponent(a)`` / p^(n−j), whose column t holds the
    coordinates of ζ^(e+t), entry (e + t) mod p^j of
    ``cyclotomic.power_coordinates``.  The blocks commute, so the
    determinant of the result is the norm.
    """
    p, n, j = chi.spec.p, chi.level, chi.order_level
    phi, order = euler_phi_prime_power(p, j), p ** j
    powers = power_coordinates(p, j)
    step = p ** (n - j)
    rows = [{x: [1, 0, degrees[x // phi] - 1]}
            for x in range(len(degrees) * phi)]
    for i, k, a in edges:
        e = chi.exponent(a) // step
        for first, second, power in ((i, k, e), (k, i, -e)):
            for t in range(phi):
                for r, b in powers[(power + t) % order]:
                    rows[first * phi + r].setdefault(
                        second * phi + t, [0, 0])[1] -= b
    return det_int_poly_matrix(rows)


@dataclass(frozen=True)
class InterpolationReport:
    """Per-character outcome of h(χ,1) = (χ̄-component of Nrd(D − A_α^t)),
    each character given by its exponent vector, in ``characters`` order."""

    results: tuple[tuple[tuple[int, ...], bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)


def interpolation_check(alpha: VoltageAssignment, n: int) -> InterpolationReport:
    """Check the L-value interpolation identity at every character.

    One side is the χ̄-component of the reduced norm of D − A_α^t,
    det(χ̄(D − A_α^t)): the transpose conjugates characters.  ``orbit_nrd``
    takes it from the coordinates of ``character_adjacency``'s χ(A_α),
    lifted to Z[x] by ``grouprings.l_rows``.  The other is h(χ, 1) =
    det(D − χ(A_α)) from ``orbit_h_values``, which lifts the exponents χ(a)
    of the edges and does not read the builder.  Each side takes one
    integer polynomial determinant per Galois orbit.  For the orbit's first
    character χ, of order p^j, and each unit a mod p^j,
    ``cyclotomic.galois_images`` reads h(χ^a, 1) at a off the one and the
    χ^(−a)-component at −a off the other, and the pair is compared, so
    every character is.  ``grouprings.per_character`` lists the
    characters once and reads the normal forms once.
    """
    check_derive_bounds(alpha, n)  # the bounds of X_n, before level-n work

    def compare(chi: Character, units: list[int], edges: Edges,
                degrees: Sequence[int]):
        p, j = chi.spec.p, chi.order_level
        h_values = galois_images(p, n, j, orbit_h_values(chi, edges, degrees),
                                 units)
        components = galois_images(p, n, j, orbit_nrd(chi, edges, degrees),
                                   [-a % p ** j for a in units])
        return map(eq, h_values, components)

    return InterpolationReport(tuple(
        (chi.exponents, ok) for chi, ok in per_character(alpha, n, compare)))


@dataclass(frozen=True)
class FactorizationReport:
    polynomial_match: bool
    exponent_match: bool

    @property
    def passed(self) -> bool:
        return self.polynomial_match and self.exponent_match


def factorization_check(alpha: VoltageAssignment, n: int) -> FactorizationReport:
    """∏_χ L(χ)^{-1} = ζ_{X_n}^{-1}, with Euler-characteristic bookkeeping.

    The product over all characters is taken as the product over Galois
    orbits of ``artin_l_norm``, all in Z[u], from the base edges' level-n
    normal forms, multiplied by ``poly_product``.  The cover side is
    ``cover_zeta_inverse``, from X_n's index pairs.  Neither side builds
    X_n.
    """
    orbits = list(galois_orbits(characters(alpha.spec, n)))
    zeta = cover_zeta_inverse(alpha, n)
    base = alpha.base
    edges = alpha.normal_form_edges(n)
    degrees = base.degrees()
    product = poly_product([artin_l_norm(chi, edges, degrees)
                            for chi, _, _ in orbits])
    total_exponent = (sum(len(units) for _, units, _ in orbits) *
                      (base.num_vertices - base.num_edges))
    return FactorizationReport(product == zeta.det_part,
                               total_exponent == zeta.chi)
