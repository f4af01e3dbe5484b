"""Exact linear algebra: fraction-free determinants and Smith normal form.

Determinants use the Bareiss algorithm, whose divisions are exact over any
integral domain.  `det_int` is the integer kernel; integer polynomial
matrices, given as sparse rows {column: coefficients}, reach it by
Kronecker substitution, which packs each one into a single `det_int`
call.  On the sparse matrices that packing yields, most rows have a zero
head at most steps, and there a Bareiss step only scales the row by the
ratio of two consecutive pivots.  `det_int` defers that scaling and
applies the telescoped ratio once, when the row is next used; the
division is exact because the scaled entry is a minor of the input.
Determinants over Z[ζ] reach `det_int_poly_matrix` too, lifted to Z[x],
one per Galois orbit of characters (`grouprings.orbit_nrd`,
`grouprings.orbit_h_values`, `zeta.artin_l_inverse`); nothing here is
generic over the ring.  Integer polynomials are tuples of ascending
coefficients, and `poly_product` packs a product into one integer product.

Smith normal form takes the matrix as sparse rows {column: value}, the form
`graphs.laplacian_rows` builds a Laplacian in, and gives the F_p-rank of
`voltage.connectivity_criterion` too.  Two phases work on those rows.  The
first removes the ±1 pivots, in approximate Markowitz order; on a graph
Laplacian that leaves a core of a few rows.  The pivots come off a heap of
Markowitz keys, and after each step only the keys that can have fallen are
pushed again: the entries the step changed, and every entry of an updated
row that got shorter.  A key that has risen is refreshed when it is popped.
The second, a min-pivot loop in exact arithmetic, diagonalizes the core's
sparse rows.  The diagonal is then normalized by pairwise gcd/lcm into a
divisibility chain.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt, prod
from typing import Iterable, Mapping, Sequence


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Bareiss determinant specialised to plain integers (hot path).

    Step s sets each row below the pivot row to
    (pivot_s·row − head·pivot_row) / pivot_{s−1}.  A row whose head is 0 is
    only scaled by pivot_s / pivot_{s−1}, and over consecutive such steps
    t..k−1 the factors telescope to pivot_{k−1} / pivot_{t−1}.  So such a
    row is skipped, and it is brought up to date once, by that ratio, when
    its head turns nonzero, when it becomes the pivot row, or at the end.
    The division is exact: the result is the entry eager Bareiss would
    hold, a minor of the input.  Scaling keeps zeros zero, so the pivot
    search reads the stored entries and takes the nonzero one of least
    absolute value, which keeps the intermediate entries small.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    # row i holds its entries after steps 0..seen[i]−1; pivots[s] is the
    # pivot of step s − 1, and pivots[0] = 1
    seen = [0] * n
    pivots = [1]
    sign = 1
    for k in range(n - 1):
        pivot_row = None
        best = None
        for r in range(k, n):
            v = m[r][k]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                pivot_row = r
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            seen[k], seen[pivot_row] = seen[pivot_row], seen[k]
            sign = -sign
        row_k = m[k]
        if seen[k] != k:
            _catch_up(row_k, k, pivots, seen[k])
        pivot = row_k[k]
        prev = pivots[k]
        for i in range(k + 1, n):
            row_i = m[i]
            if row_i[k]:
                if seen[i] != k:
                    _catch_up(row_i, k, pivots, seen[i])
                head = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
                seen[i] = k + 1
        pivots.append(pivot)
    last = m[n - 1]
    if seen[n - 1] != n - 1:
        _catch_up(last, n - 1, pivots, seen[n - 1])
    return sign * last[n - 1]


def _catch_up(row: list[int], k: int, pivots: list[int], seen: int) -> None:
    """Apply the zero-head steps seen..k−1 to the entries row[k:]; the
    caller tests seen < k, the lag, first."""
    num, den = pivots[k], pivots[seen]
    for j in range(k, len(row)):
        if row[j]:
            row[j] = row[j] * num // den


def det_int_poly_matrix(
        rows: Sequence[Mapping[int, Sequence[int]]]) -> tuple[int, ...]:
    """Determinant of a square matrix of integer polynomials, given as
    sparse rows {column: ascending coefficients}; a missing entry is 0.

    Kronecker substitution: every entry is evaluated at u = 2^B, one integer
    determinant is taken, and its signed base-2^B digits are the
    coefficients.  Returns ascending coefficients with no trailing zeros.
    """
    # Goldstein-Graham: for every θ, |det A(e^{iθ})| ≤ ∏_i ‖row_i‖₂ ≤ √S with
    # S = ∏_i Σ_j ‖a_ij‖₁², so every coefficient is at most ‖det‖₂ ≤ √S and
    # fits in a signed digit of B bits.
    bound = 1
    for row in rows:
        bound *= sum(sum(map(abs, entry)) ** 2 for entry in row.values())
    bits = isqrt(bound).bit_length() + 1
    x = 1 << bits
    order = _band_order(rows)
    position = {j: pos for pos, j in enumerate(order)}
    packed = []
    for i in order:
        row = [0] * len(order)
        for j, entry in rows[i].items():
            row[position[j]] = _eval_poly(entry, x)
        packed.append(row)
    return _unpack(det_int(packed), bits)


def _band_order(rows: Sequence[Iterable[int]]) -> list[int]:
    """Breadth-first order over the nonzero pattern, given as each row's
    columns.  The same permutation of rows and columns keeps the
    determinant, and on a sparse matrix keeps the Bareiss fill-in of
    packed entries near the diagonal."""
    order: list[int] = []
    seen: set[int] = set()
    for start in range(len(rows)):
        if start not in seen:
            seen.add(start)
            queue = [start]
            for i in queue:
                for j in rows[i]:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
            order += queue
    return order


def poly_product(polys: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Product of integer polynomials, given and returned as ascending
    coefficients, as one integer product by Kronecker substitution at
    u = 2^B: every coefficient of the product is at most ∏‖f‖₁ in absolute
    value, so it fits in a signed digit of B bits."""
    bits = prod(sum(map(abs, f)) for f in polys).bit_length() + 1
    u = 1 << bits
    return _unpack(prod(_eval_poly(f, u) for f in polys), bits)


def _eval_poly(coeffs: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _unpack(value: int, bits: int) -> tuple[int, ...]:
    """Signed base-2^bits digits of value, ascending, each in [−2^(bits−1),
    2^(bits−1)); the last digit is nonzero."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    digits = []
    while value:
        digits.append(((value & mask) ^ half) - half)
        value = (value - digits[-1]) >> bits
    return tuple(digits)


def smith_invariant_factors(rows: list[dict[int, int]],
                            cols: int) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix given as
    sparse rows {column: value} with no zero values, and its column count.
    The rows are overwritten.

    Two phases on the same sparse rows, whose list keeps its length: the
    unit pivots are eliminated (`_eliminate_unit_pivots`), and the core
    left over is diagonalized (`_diagonalize_core`).  The diagonal is then
    normalized into a divisibility chain.  The returned list has length
    min(rows, cols); trailing zeros mark rank deficiency.
    """
    units, core = _eliminate_unit_pivots(rows, cols)
    diag = _diagonalize_core(core)
    chain = [d for d in map(abs, diag) if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            g = gcd(a, b)
            chain[i], chain[j] = g, a // g * b
    # each unit pivot took one row and one column of the matrix
    return ([1] * (units + len(diag) - len(chain)) + chain +
            [0] * (min(len(rows), cols) - units - len(diag)))


def _eliminate_unit_pivots(
        rows: list[dict[int, int] | None],
        cols: int) -> tuple[int, list[dict[int, int]]]:
    """Sparse elimination of ±1 pivots: each is a unimodular step that
    contributes one invariant factor 1.  Returns the number of pivots and
    the nonempty rows left over, the core, as the same sparse rows.

    The rows are updated in place, with the set of rows of each column.
    The next pivot is a ±1 entry popped from a heap keyed by Markowitz cost
    (row count − 1)·(column count − 1), so no step rescans the matrix.  The
    order is approximate.  A key that has risen is refreshed when popped.
    After a step the ±1 entries whose keys can have fallen are pushed again
    with their new keys: in an updated row, those in the pivot row's
    columns, whose values the step changed, and, if the row got shorter,
    all of them.  Without the shorter rows the Smith form of three seeded
    729- and 1024-vertex covers took 1.6-2.5 times as long.  An entry of a
    row the step left alone keeps its key though its column count fell;
    pushing those too made the elimination slower and left cores of about
    the same size.
    """
    col_rows: list[set[int] | None] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    heap = [((len(row) - 1) * (len(col_rows[j]) - 1), i, j)
            for i, row in enumerate(rows)
            for j, v in row.items() if v == 1 or v == -1]
    heapify(heap)
    units = 0
    while heap:
        cost, r, c = heappop(heap)
        pivot_row = rows[r]
        if pivot_row is None or pivot_row.get(c) not in (1, -1):
            continue
        others = col_rows[c]
        actual = (len(pivot_row) - 1) * (len(others) - 1)
        if actual > cost:
            heappush(heap, (actual, r, c))
            continue
        pivot = pivot_row.pop(c)
        others.discard(r)
        pushes = []
        for i in others:
            row_i = rows[i]
            length = len(row_i)
            f = row_i.pop(c) * pivot
            repush = []
            for j, v in pivot_row.items():
                old = row_i.get(j)
                if old is None:
                    row_i[j] = new = -f * v
                    col_rows[j].add(i)
                elif old == f * v:
                    del row_i[j]
                    col_rows[j].discard(i)
                    continue
                else:
                    row_i[j] = new = old - f * v
                if new == 1 or new == -1:
                    repush.append(j)
            if len(row_i) < length:
                repush = [j for j, v in row_i.items() if v == 1 or v == -1]
            pushes.append((i, len(row_i) - 1, repush))
        for j in pivot_row:
            col_rows[j].discard(r)
        rows[r] = col_rows[c] = None
        units += 1
        for i, lead, repush in pushes:
            for j in repush:
                heappush(heap, (lead * (len(col_rows[j]) - 1), i, j))
    return units, [row for row in rows if row]


def _diagonalize_core(rows: list[dict[int, int]]) -> list[int]:
    """The nonzero diagonal, one entry per unit of rank, of a matrix
    equivalent to the core, given as nonempty sparse rows, which are
    overwritten.

    A min-pivot loop of exact row and column operations, with no swaps and
    no divisibility test; the gcd/lcm pass in the caller turns the
    diagonal into the chain.  Each pivot starts at an entry of least
    absolute value; the search stops at ±1.  Nearest-integer row operations
    act on the rows holding the pivot column; a remainder left there moves
    the pivot to the least entry of its row.  Once the column is clear,
    column operations reduce the pivot row alone, and its least remainder
    becomes the pivot.  A finished pivot row is dropped.
    """
    diag: list[int] = []
    while rows:
        low = 0
        for row in rows:
            least = min(map(abs, row.values()))
            if not low or least < low:
                low, pivot = least, row
                if low == 1:
                    break
        while True:
            for c, p in pivot.items():
                if p == low or p == -low:
                    break
            twice = 2 * p
            # nearest-integer quotients leave remainders of at most |p|/2,
            # so |p| at least halves at every move of the pivot
            low = 0
            for row in rows:
                a = row.get(c)
                if a is None or row is pivot:
                    continue
                q = (2 * a + p) // twice
                if q:
                    for j, v in pivot.items():
                        new = row.get(j, 0) - q * v
                        if new:
                            row[j] = new
                        else:
                            del row[j]
                    a -= q * p
                if a and (not low or abs(a) < low):
                    low, moved = abs(a), row
            if low:
                pivot = moved
                low = min(map(abs, pivot.values()))
                continue
            # column c is clear outside the pivot row, so a column
            # operation changes that row alone
            for j, v in list(pivot.items()):
                if j != c:
                    v -= (2 * v + p) // twice * p
                    if v:
                        pivot[j] = v
                    else:
                        del pivot[j]
            if len(pivot) == 1:
                break
            low = min(map(abs, pivot.values()))
        diag.append(p)
        rows = [row for row in rows if row and row is not pivot]
    return diag
