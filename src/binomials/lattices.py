"""Integer lattices, partial characters, and lattice/toric ideals.

All linear algebra is exact over Python's arbitrary-precision integers.
One row-style Hermite normal form answers the integer-matrix questions:
it canonicalizes lattices (equality is plain tuple comparison), gives
kernels and indices.  The Smith form gives saturations and character
extensions.  Both elimination loops keep their transforms inside the work
matrix, as blocks that each row operation carries along, and both subtract
a pivot row through one function (``_reduce``); Smith's column operations
are row operations on the transpose.  Positivity of a degree matrix is one
integer simplex run for a positive functional (``_fm_feasible``), whose
ratio test compares cross products.

The integer functions need no coefficient: the functions that build a
character value or an ideal import ``scalars`` and ``engine`` themselves,
so ``snf``, ``is-positive`` and ``fibers`` on a literal matrix load neither.
"""

import itertools
import math
from collections import namedtuple

from .errors import (ExtensionRankError, InconsistentCharacterError,
                     InputError, NotPositiveError, NotPureError)
from .orders import e_sub


# ---------------------------------------------------------------------------
# exact integer matrix helpers (matrices are lists of row lists)

def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, mid, cols = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(mid)) for j in range(cols)]
            for i in range(rows)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def _check_vectors(vectors, n=None, what="vector"):
    """The vectors as tuples, refused unless each has length n (the first's)."""
    vectors = [tuple(v) for v in vectors]
    n = len(vectors[0]) if n is None and vectors else n
    for v in vectors:
        if len(v) != n:
            raise InputError("%s of length %d, expected %d" % (what, len(v), n))
    return vectors


def _reduce(rows, r, col, others):
    """Subtract row r times q = rows[i][col] // rows[r][col] from each row i
    of ``others``, skipping q = 0; True when all their ``col`` entries are 0."""
    pivot = rows[r]
    for i in others:
        q = rows[i][col] // pivot[col]
        if q:
            rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
    return all(rows[i][col] == 0 for i in others)


def _hnf_rows(vectors):
    """Row HNF: positive pivots in echelon position, entries above a pivot
    reduced into [0, pivot).  Returns (H, T, rank) with H = T * input, T
    square unimodular; zero rows of H sit at the bottom.  The rows of
    [input | I] are reduced with pivots in the input's columns only, so T
    is the right-hand block."""
    vectors = [list(v) for v in vectors]
    m, n = len(vectors), len(vectors[0]) if vectors else 0
    rows = [v + e for v, e in zip(vectors, identity(m))]
    r = 0
    for col in range(n):
        while True:
            live = [i for i in range(r, m) if rows[i][col] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: (abs(rows[i][col]), i))
            rows[r], rows[pivot] = rows[pivot], rows[r]
            if _reduce(rows, r, col, range(r + 1, m)):
                break
        if r < m and rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-a for a in rows[r]]
            _reduce(rows, r, col, range(r))
            r += 1
    return [tuple(v[:n]) for v in rows], [tuple(v[n:]) for v in rows], r


def hnf(vectors):
    """Canonical HNF rows of the lattice generated by ``vectors``."""
    rows, _, rank = _hnf_rows(_check_vectors(vectors))
    return tuple(rows[:rank])


def kernel_basis(A):
    """Basis of the integer right kernel {v : A v = 0}."""
    cols = transpose(_check_vectors(A, what="matrix row"))
    if not cols:
        return []
    rows, T, rank = _hnf_rows(cols)
    return [T[i] for i in range(rank, len(cols))]


class SmithForm(namedtuple("SmithForm", "U D V")):
    __slots__ = ()

    def diagonal(self):
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)))


def smith_normal_form(A):
    """U*A*V = D diagonal with d1 | d2 | ...; U, V unimodular.  The work
    matrix is [[A, I_m], [I_n, 0]]: row operations on its first m rows carry
    U, column operations on its first n columns (row operations on its
    transpose) carry V, and pivots come from the top-left block only.  The
    column step runs first at each pivot; the two commute, as each reads
    only the pivot row or column, which the other leaves unchanged."""
    A = _check_vectors(A, what="matrix row")
    m, n = len(A), len(A[0]) if A else 0
    B = ([list(row) + e for row, e in zip(A, identity(m))]
         + [e + [0] * m for e in identity(n)])
    t = 0
    while True:
        entries = [(abs(B[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if B[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        B[t], B[pi] = B[pi], B[t]
        C = transpose(B)
        C[t], C[pj] = C[pj], C[t]
        cleared = _reduce(C, t, t, range(t + 1, n))
        B = transpose(C)
        if not (_reduce(B, t, t, range(t + 1, m)) and cleared):
            continue  # a remainder becomes the new, strictly smaller pivot
        offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                         if B[i][j] % B[t][t] != 0), None)
        if offender is not None:  # pull its row in; the next pass shrinks the pivot
            B[t] = [a + b for a, b in zip(B[t], B[offender])]
            continue
        if B[t][t] < 0:
            B[t] = [-a for a in B[t]]
        t += 1
    return SmithForm(tuple(tuple(row[n:]) for row in B[:m]),
                     tuple(tuple(row[:n]) for row in B[:m]),
                     tuple(tuple(row[:n]) for row in B[m:]))


# ---------------------------------------------------------------------------
# lattices and partial characters

class Lattice(namedtuple("Lattice", "n basis")):
    """Sublattice of Z^n with an HNF-canonical basis (equality = basis equality)."""

    __slots__ = ()

    @classmethod
    def from_vectors(cls, n, vectors):
        return cls(n, hnf(_check_vectors(vectors, n, "lattice vector")))

    @property
    def rank(self):
        return len(self.basis)

    def express(self, v):
        """Coefficients of v over the HNF basis, or None when v is outside."""
        v, = _check_vectors([v], self.n)
        coeffs = []
        for row in self.basis:
            pivot_col = next(i for i, x in enumerate(row) if x != 0)
            q, r = divmod(v[pivot_col], row[pivot_col])
            if r != 0:
                return None
            coeffs.append(q)
            v = [a - q * b for a, b in zip(v, row)]
        return coeffs if all(x == 0 for x in v) else None

    def __contains__(self, v):
        return self.express(v) is not None


def lattice_intersect(L1, L2):
    """L1 n L2 via the kernel of the stacked basis matrix."""
    if L1.n != L2.n:
        raise InputError("lattices live in different ambient dimensions")
    if not L1.basis or not L2.basis:
        return Lattice.from_vectors(L1.n, [])
    stacked = [list(v) for v in L1.basis] + [[-x for x in v] for v in L2.basis]
    r1 = len(L1.basis)
    coeffs = [k[:r1] for k in kernel_basis(transpose(stacked))]
    return Lattice.from_vectors(L1.n, mat_mul(coeffs, stacked[:r1]))


def _coefficients(L, M):
    """The coefficients C of L's basis over M's (L.basis = C * M.basis), for
    L within M of equal rank."""
    if L.n != M.n:
        raise InputError("lattices live in different ambient dimensions")
    if L.rank != M.rank:
        raise ExtensionRankError("index of the lattice inclusion is infinite "
                                 "(ranks %d vs %d)" % (L.rank, M.rank))
    C = [M.express(v) for v in L.basis]
    if None in C:
        raise InputError("lattice is not contained in the target lattice")
    return C


def quotient_index(L, M):
    """|M / L| for L within M of equal rank: |det C| for the coefficients C
    of L over M, the product of the HNF pivots of C."""
    C = _coefficients(L, M)
    return math.prod(row[i] for i, row in enumerate(_hnf_rows(C)[0]))


class PartialCharacter(namedtuple("PartialCharacter", "lattice values")):
    """A group homomorphism rho : L -> k*, one Scalar per HNF basis vector."""

    __slots__ = ()

    @classmethod
    def trivial(cls, lattice):
        from .scalars import ONE
        return cls(lattice, (ONE,) * lattice.rank)

    @classmethod
    def from_generators(cls, n, vectors, values):
        """The character taking each value on its vector.  With T * vectors
        = H (HNF, T unimodular), H's i-th row takes values^(T_i).  The values
        define a homomorphism iff each relation c (c * vectors = 0) maps to
        1; T's rows from the rank on span the relations, as c * T^-1 * H = 0
        and H's nonzero rows are independent.  Then vector j takes its value:
        e_j - sum_(i < rank) (T^-1)_ji T_i is a relation, by T * T^-1 = I."""
        from .engine import scalar_power
        vectors = _check_vectors(vectors, n, "lattice vector")
        _check_vectors([values], len(vectors), "values")
        rows, T, rank = _hnf_rows(vectors)
        for c in T[rank:]:
            got = scalar_power(values, c)
            if not got.is_one():
                raise InconsistentCharacterError("values do not define a homomorphism: "
                                                 "relation %r maps to %s" % (c, got))
        return cls(Lattice(n, tuple(rows[:rank])),
                   tuple(scalar_power(values, T[i]) for i in range(rank)))

    def __call__(self, v):
        from .engine import scalar_power
        coeffs = self.lattice.express(v)
        if coeffs is None:
            raise InputError("vector %r is outside the character's lattice" % (v,))
        return scalar_power(self.values, coeffs)


# ---------------------------------------------------------------------------
# saturations

def _p_valuation(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return d, v


def saturations(L, p=0):
    """(Sat, Sat_p, Sat'_p) of a lattice for p = 0 or a prime; p = 0 follows
    the convention Sat_0(L) = L and Sat'_0(L) = Sat(L).  With U * B * V = D
    the Smith form of L's basis B, the first rank rows of V^-1 span Sat(L),
    each scaled by the p-free (p-power) part of d_i for Sat_p (Sat'_p).  Row
    i of U * B = D * V^-1 is d_i times row i of V^-1, and d_i != 0 below
    the rank, so those rows are U * B's divided exactly."""
    from .scalars import factor_positive
    if p != 0 and (not isinstance(p, int) or p < 2 or factor_positive(p) != {p: 1}):
        raise InputError("p must be 0 or a prime, got %r" % (p,))
    if not L.basis:
        empty = Lattice(L.n, ())
        return empty, empty, empty
    S = smith_normal_form(L.basis)
    diag = [d for d in S.diagonal() if d != 0]
    Vinv = [[x // d for x in row] for d, row in zip(diag, mat_mul(S.U, L.basis))]
    sat = Lattice.from_vectors(L.n, Vinv)
    if p == 0:
        return sat, L, sat
    sat_p_rows, sat_cop_rows = [], []
    for d, row in zip(diag, Vinv):
        coprime, v = _p_valuation(d, p)
        sat_p_rows.append([coprime * x for x in row])
        sat_cop_rows.append([p ** v * x for x in row])
    return sat, Lattice.from_vectors(L.n, sat_p_rows), Lattice.from_vectors(L.n, sat_cop_rows)


def is_saturated(L):
    """Sat(L) = L iff Z^n / L is torsion-free: each invariant factor is 1."""
    return all(d == 1 for d in smith_normal_form(L.basis).diagonal())


# ---------------------------------------------------------------------------
# lattice ideals

def _basis_binomial(v, value):
    from .engine import binomial
    plus = tuple(max(x, 0) for x in v)
    minus = tuple(max(-x, 0) for x in v)
    return binomial(plus, minus, value)


def _degree_vector(basis, n):
    """An integer w >= 1 with w.b = 0 for every b in basis, all ones when
    that works; None when there is none."""
    if all(sum(b) == 0 for b in basis):
        return (1,) * n
    kernel = kernel_basis(basis)
    # a coordinate that every kernel vector misses bounds t by 0: no witness
    y = _fm_feasible(transpose(kernel)) if kernel else None
    return y and tuple(sum(a * v[j] for a, v in zip(y, kernel)) for j in range(n))


def _lattice_ideals(characters, names):
    """I_L(rho) for each rho in ``characters``, all on one L, each holding
    its reduced grevlex basis, off one saturation of I_L(1) = <X^(b+) -
    X^(b-) : b basis> at all variables.  The saturation runs on the image
    under X_i -> X_i^(w_i) for a degree vector w >= 1 of L: it is
    homogeneous (no homogenizing variable) and flat, so its exponents
    divide back by w to generators of I_L(1); for w other than all ones one
    Buchberger run then gives their reduced grevlex basis.  With lambda^v =
    rho(v) on L (k* is divisible), X_i -> X_i/lambda_i maps X^(b+) - X^(b-)
    to a unit times X^(b+) - rho(b) X^(b-), so I_L(1) onto I_L(rho)
    (Eisenbud-Sturmfels), and X^a - X^b to a unit times X^a - rho(a - b)
    X^b.  It fixes exponents, so lambda is never needed, and it moves no
    lead: the reduced basis of I_L(1), rescaled, is that of I_L(rho)."""
    from .engine import (BinomialIdeal, ReducedGB, _from_basis, binomial,
                         saturate_vars, scalar_power)
    from .scalars import ONE
    L = characters[0].lattice
    if len(names) != L.n:
        raise InputError("ring has %d variables, lattice ambient is %d" % (len(names), L.n))
    w = _degree_vector(L.basis, L.n) or (1,) * L.n
    gens = [_basis_binomial([x * y for x, y in zip(v, w)], ONE) for v in L.basis]
    S = saturate_vars(BinomialIdeal(names, gens), range(L.n))
    if w != (1,) * L.n:
        S = BinomialIdeal(names, [binomial(*(tuple(x // y for x, y in zip(e, w))
                                             for e in (g.lead, g.trail))) for g in S.gens])
    gb = S.groebner()
    coords = [L.express(e_sub(g.lead, g.trail)) for g in gb.elements]
    return [_from_basis(names, ReducedGB(gb.order, tuple(
                binomial(g.lead, g.trail, scalar_power(rho.values, c))
                for g, c in zip(gb.elements, coords))))
            for rho in characters]


def lattice_ideal(rho, names):
    """I_L(rho) = <X^(b+) - rho(b) X^(b-) : b basis> : (prod X_i)^infty."""
    return _lattice_ideals([rho], names)[0]


def character_of(I):
    """The unique rho with I : (prod X_i)^infty = I_L(rho), for pure I.

    L is spanned by the exponent differences of any binomial basis of I,
    with rho(a - b) = c on each X^a - c X^b (Eisenbud-Sturmfels, Cor. 2.5),
    so the reduced basis is read as it is.  A reduced basis without a
    monomial means I holds no monomial, so the saturation is proper and
    the values are consistent."""
    elements = I.groebner().elements
    if any(b.is_monomial for b in elements):
        raise NotPureError("ideal contains a monomial; no lattice character exists")
    vectors = [e_sub(e.lead, e.trail) for e in elements]
    return PartialCharacter.from_generators(I.n, vectors, [e.coeff for e in elements])


def is_lattice_ideal(I):
    """I = I_L(rho): proper and saturated at every variable, so pure."""
    from .engine import saturate_vars
    return not I.is_unit() and saturate_vars(I, range(I.n)) is I


def extend_character(rho, M):
    """All |M/L| extensions of rho to M, in lexicographic branch order.
    U * C * V = D for L's coefficients C over M gives U * L.basis = D * m,
    m = V^-1 * M.basis: rho takes values^(U_i) on d_i * m_i, an extension
    a d_i-th root r_i of it on m_i, and r^(V_j) on M.basis_j = V_j * m."""
    from .engine import scalar_power
    L = rho.lattice
    if L == M:
        return [rho]
    S = smith_normal_form(_coefficients(L, M))
    diag = S.diagonal()
    target = [scalar_power(rho.values, row) for row in S.U]
    out = []
    for branches in itertools.product(*(range(d) for d in diag)):
        roots = [t.root(d, k) for t, d, k in zip(target, diag, branches)]
        out.append(PartialCharacter(M, tuple(scalar_power(roots, row) for row in S.V)))
    return out


def lattice_primary_decomposition(rho, names):
    """Minimal primary decomposition of I_L(rho) over characteristic zero: one
    prime I_Sat(L)(rho_j) per extension rho_j of rho, all off one chain."""
    exts = extend_character(rho, saturations(rho.lattice)[0])
    return list(zip(exts, _lattice_ideals(exts, names)))


# ---------------------------------------------------------------------------
# toric ideals, positivity, fibers

def _validate_columns(A):
    if not A or not A[0]:
        raise InputError("degree matrix must be nonempty")
    _check_vectors(A, what="degree matrix row")
    for j in range(len(A[0])):
        if all(row[j] == 0 for row in A):
            raise InputError("column %d of the degree matrix is zero" % j)


def toric_ideal(A, names):
    """Kernel ideal of the monomial map defined by the columns of A; prime."""
    _validate_columns(A)
    if len(A[0]) != len(names):
        raise InputError("matrix has %d columns, ring has %d variables"
                         % (len(A[0]), len(names)))
    kernel = Lattice.from_vectors(len(A[0]), kernel_basis(A))
    return lattice_ideal(PartialCharacter.trivial(kernel), names)


def _fm_feasible(cols):
    """An integer w with w . a_j >= 1 on every column a_j, or None, from one
    simplex run: maximize t subject to t - w . a_j <= 0 and t <= 1, with
    w = w+ - w- and w+, w-, t >= 0.  The origin is a vertex, so no first
    phase is needed, and t is bounded, so every ratio test finds a row.  Some
    w > 0 on every column scales to t = 1, so the optimum is 1 when A is
    positive and 0 otherwise.  Bland's rule (least index enters, least basic
    index leaves a tie) cannot cycle (Bland, Math. Oper. Res. 2, 1977).  The
    tableau is integral (Edmonds, Bareiss): each entry is D times its
    rational value, D > 0 the last pivot, and each row step divides by the
    previous D exactly.  So D * w is integral, and w . a_j >= t = 1 keeps
    D * w . a_j >= D; divided by its gcd g, each D * w . a_j / g is a
    positive integer.  Unlike a Fourier-Motzkin elimination, whose rows can
    square at every eliminated variable (Schrijver, Theory of Linear and
    Integer Programming, 1986, Sec. 12.2), this always ends; the ``fm``
    name stays because ``perfbench/tracing.py`` counts calls to it as
    ``lattices.fm_calls``."""
    # columns w+, w-, t, a slack per row, the right-hand side; the rows of
    # t - w . a_j <= 0 and t <= 1, then the objective -t
    d, m = len(cols[0]), len(cols) + 1
    slack = identity(m)
    rows = [[-x for x in a] + a + [1] + e + [0] for a, e in zip(cols, slack)]
    rows += [[0] * 2 * d + [1] + slack[-1] + [1], [0] * 2 * d + [-1] + [0] * (m + 1)]
    basis, D = list(range(2 * d + 1, 2 * d + 1 + m)), 1
    while True:
        c = next((k for k, x in enumerate(rows[-1][:-1]) if x < 0), None)
        if c is None:
            break
        # the least ratio rows[i][-1] / rows[i][c] over rows[i][c] > 0,
        # compared as cross products; ties go to the least basic index
        r = None
        for i in range(m):
            if rows[i][c] > 0 and (r is None or (rows[i][-1] * rows[r][c], basis[i])
                                   < (rows[r][-1] * rows[i][c], basis[r])):
                r = i
        p, pivot = rows[r][c], rows[r]
        rows = [row if row is pivot else [(p * x - row[c] * y) // D for x, y in zip(row, pivot)]
                for row in rows]
        basis[r], D = c, p
    if rows[-1][-1] == 0:
        return None
    value = {k: row[-1] for k, row in zip(basis, rows)}
    w = [value.get(i, 0) - value.get(d + i, 0) for i in range(d)]
    g = math.gcd(*w)
    return [x // g for x in w]


def is_positive(A):
    """True when the only nonnegative rational vector in ker(A) is zero,
    i.e. all fibers of the degree map are finite.  By Gordan's alternative
    that holds exactly when some w has w . a_j > 0 on every column a_j."""
    return positive_witness(A) is not None


def positive_witness(A):
    """Integer w with w . a_j >= 1 for every column a_j, or None."""
    _validate_columns(A)
    return _fm_feasible(transpose(A))


def fibers(A, target):
    """All factorizations deg^(-1)(target), enumerated by bounded search."""
    w = positive_witness(A)
    target = list(target)
    if len(target) != len(A):
        raise InputError("target has dimension %d, matrix has %d rows"
                         % (len(target), len(A)))
    if w is None:
        raise NotPositiveError("degree matrix is not positive; fibers may be infinite")
    cols = transpose(A)
    weights = [sum(wi * x for wi, x in zip(w, col)) for col in cols]
    if any(wt < 1 for wt in weights):
        raise AssertionError("positive witness gives a column weight below 1")
    n = len(cols)
    out = []

    def search(j, remaining, budget, partial):
        col, wt = cols[j], weights[j]
        if j == n - 1:
            # the last count is forced: remaining = c * col, with c read off
            # the first nonzero entry of the column
            c = next(r // x for r, x in zip(remaining, col) if x)
            if c >= 0 and all(r == c * x for r, x in zip(remaining, col)):
                out.append(tuple(partial + [c]))
            return
        for c in range(budget // wt + 1):
            rest = [r - c * x for r, x in zip(remaining, col)]
            search(j + 1, rest, budget - c * wt, partial + [c])

    budget = sum(wi * t for wi, t in zip(w, target))
    search(0, target, budget, [])
    return sorted(out)
