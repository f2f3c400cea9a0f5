"""The identity checks as chains of `Matrix` operators: the reference oracle.

The functions below are verbatim copies of the checks before they evaluated
each identity as one combination of products on integer numerators
(`linalg.Products`): every step here builds a lowest-terms `Matrix`. Where
they called `Matrix.transpose`, `Matrix.zero` or `**`, which `linalg` no
longer has, the same matrices are formed with what it keeps.
`expect_zero` is the helper they used, which took the residual matrix.
`commutator`, `q_commutator` and `qweyl_bracket` are the `linalg` brackets
they were written in. `qdg_residuals` returns both residuals, zero or not,
and so does `check_L_conjugation`. `check_tridiagonal_action` reads
`Decomposition.block_form`, P^-1 X P, inlined here. `H_invertible` and
`H_commutes_A` are the `lusztig.H_invertible` and `lusztig.H_commutes_A`
checks of the suite, as functions of the model and H. `is_qweyl_pair` is
the integer q-Weyl verdict `linalg` had beside `equitable.qweyl_residual`,
and `expand_H` is the `Matrix`-operator evaluator of the H expansions that
`lusztig` kept to form a failing anchor's witness. `qweyl_ladder` and
`shifted_product_images` are the ladder-step and crossing-flag proof that
`equitable.ladders` ran on every q-Weyl pair before it read the table's
verdicts and the ladder spectra; the shifts lam q^-2 and lam^-1, which
`LadderSpectra` kept as `lowered` and `inverted`, are formed in
`qweyl_ladder`, and `ladders` is that check as a function of the target's
context. The split-map checks take the (up, down) pair of
`build_split_maps` and read Kdown, Bdown, Mdown and Ndown as the K, B, M
and N of the down orientation.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul

from qonsager.equitable import build_triple_table
from qonsager.linalg import Decomposition, Matrix, ShapeError, Subspace, _span
from qonsager.lusztig import LusztigData
from qonsager.model import ModelError, TDModel
from qonsager.scalars import ONE, ParameterError, t_coeff
from qonsager.splitmaps import LadderSpectra, SplitMaps


def commutator(x: Matrix, y: Matrix) -> Matrix:
    """[X, Y] = XY - YX."""
    return x * y - y * x


def q_commutator(x: Matrix, y: Matrix, q) -> Matrix:
    """[X, Y]_q = q XY - q^-1 YX."""
    q = Fraction(q)
    return (x * y).scale(q) - (y * x).scale(1 / q)


def qweyl_bracket(x: Matrix, y: Matrix, q) -> Matrix:
    """(q XY - q^-1 YX)/(q - q^-1); the pair (X, Y) is q-Weyl when this is I."""
    q = Fraction(q)
    return q_commutator(x, y, q).scale(1 / (q - 1 / q))


def is_qweyl_pair(x: Matrix, y: Matrix, q) -> bool:
    """True when (q XY - q^-1 YX)/(q - q^-1) = I, tested on integer numerators.

    With q = u/v, X = X_n/d_x and Y = Y_n/d_y this is
    u^2 X_n Y_n - v^2 Y_n X_n = (u^2 - v^2) d_x d_y I; no matrix is built.
    """
    if not x.rows == x.cols == y.rows == y.cols:
        raise ShapeError(f"q-Weyl test of {x.rows}x{x.cols} and {y.rows}x{y.cols}: need one square size")
    q = Fraction(q)
    u2, v2 = q.numerator**2, q.denominator**2
    diagonal = (u2 - v2) * x.denominator * y.denominator
    x_cols, y_cols = list(zip(*x.numerators)), list(zip(*y.numerators))
    for i, (x_row, y_row) in enumerate(zip(x.numerators, y.numerators)):
        for j, (x_col, y_col) in enumerate(zip(x_cols, y_cols)):
            entry = u2 * sum(map(mul, x_row, y_col)) - v2 * sum(map(mul, y_row, x_col))
            if entry != (diagonal if i == j else 0):
                return False
    return True


def qdg_residuals(a: Matrix, astar: Matrix, q: Fraction) -> tuple[Matrix, Matrix]:
    """Residuals of the two q-Dolan/Grady relations, in order.

    Relation 1: [A,[A,[A,A*]_q]_(q^-1)] - (q^2-q^-2)^2 [A*,A].
    Relation 2: the same with A and A* interchanged.
    """
    if a.rows != a.cols or a.rows != astar.rows or a.cols != astar.cols:
        raise ShapeError("q-Dolan/Grady check needs square matrices of equal shape")
    q = Fraction(q)
    scale = (q * q - 1 / (q * q)) ** 2
    res1 = commutator(a, q_commutator(a, q_commutator(a, astar, q), 1 / q)) - commutator(astar, a).scale(scale)
    res2 = commutator(astar, q_commutator(astar, q_commutator(astar, a, q), 1 / q)) - commutator(a, astar).scale(scale)
    return res1, res2


def lusztig_image(model: TDModel, direction: int) -> Matrix:
    """A* + [A, [A, A*]_(q^eps)] / ((q - q^-1)(q^2 - q^-2)) for eps = +1 or -1."""
    if direction not in (1, -1):
        raise ParameterError(f"direction must be +1 or -1, got {direction}")
    q = model.params.q
    qeps = q if direction == 1 else 1 / q
    denom = (q - 1 / q) * (q * q - 1 / (q * q))
    return model.Astar + commutator(model.A, q_commutator(model.A, model.Astar, qeps)).scale(1 / denom)


def check_tridiagonal_action(model: TDModel):
    """E_i A* E_j = 0 and E*_i A E*_j = 0 whenever |i - j| > 1.

    Each product is read as a block of A* (or A) in the eigenbasis of A (or
    A*); the product itself is formed only as the witness of a nonzero block.
    Returns (passed, failures) with failures as (side, i, j, residual).
    """
    sides = [("E_i A* E_j", model.eigenspaces_A, model.Astar), ("E*_i A E*_j", model.eigenspaces_Astar, model.A)]
    forms = [dec.basis_inverse() * x * dec.basis_matrix() for _, dec, x in sides]
    failures = []
    n = model.d + 1
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= 1:
                continue
            for (side, dec, x), y in zip(sides, forms):
                if not dec.block_is_zero(y, i, j):
                    failures.append((side, i, j, dec.projector([i]) * x * dec.projector([j])))
    return not failures, failures


def H_invertible(model, lus):
    return lus.H * lus.H_inv == Matrix.identity(model.dim)


def H_commutes_A(model, lus):
    return (lus.H * model.A - model.A * lus.H).is_zero()


def expect_zero(failures: list, name: str, resid: Matrix) -> None:
    """Record (name, resid) as a failure unless the residual is the zero matrix."""
    if not resid.is_zero():
        failures.append((name, resid))


def check_KA_relations(model: TDModel, pair):
    """The defining relations tying A to each split-map pair, all exact.

    For (K, B) with parameter a (and the same with Kdown, Bdown):
      (q KA - q^-1 AK)/(q - q^-1) = a K^2 + a^-1 I
      (q BA - q^-1 AB)/(q - q^-1) = a^-1 B^2 + a I
      a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0
      (q A K^-1 - q^-1 K^-1 A)/(q - q^-1) = a^-1 K^-2 + a I
      (q A B^-1 - q^-1 B^-1 A)/(q - q^-1) = a B^-2 + a^-1 I
      a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2 = 0
    with c1 = (a^-1 q - a q^-1)/(q - q^-1), c2 = (a q - a^-1 q^-1)/(q - q^-1),
    plus the two inverse-pair statements built from KB cross terms.
    Returns (passed, failures) as (name, residual).
    """
    p = model.params
    q, a = p.q, p.a
    ident = Matrix.identity(model.dim)
    c1 = (q / a - a / q) / (q - 1 / q)
    c2 = (a * q - 1 / (a * q)) / (q - 1 / q)
    up, down = pair
    failures = []
    for tag, k, b in (("", up.K, up.B), ("down:", down.K, down.B)):
        k_inv = k.inverse()
        b_inv = b.inverse()
        expect_zero(
            failures,
            f"{tag}qweyl[K,A] = a K^2 + a^-1 I",
            qweyl_bracket(k, model.A, q) - (k * k).scale(a) - ident.scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[B,A] = a^-1 B^2 + a I",
            qweyl_bracket(b, model.A, q) - (b * b).scale(1 / a) - ident.scale(a),
        )
        expect_zero(
            failures,
            f"{tag}a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0",
            (k * k).scale(a) - (k * b).scale(c1) - (b * k).scale(c2) + (b * b).scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[A,K^-1] = a^-1 K^-2 + a I",
            qweyl_bracket(model.A, k_inv, q) - (k_inv * k_inv).scale(1 / a) - ident.scale(a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[A,B^-1] = a B^-2 + a^-1 I",
            qweyl_bracket(model.A, b_inv, q) - (b_inv * b_inv).scale(a) - ident.scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2 = 0",
            (k_inv * k_inv).scale(1 / a)
            - (k_inv * b_inv).scale(c1)
            - (b_inv * k_inv).scale(c2)
            + (b_inv * b_inv).scale(a),
        )
        # Two inverse-pair reformulations of the KB relations.
        inv_a = 1 / a - a
        a_inv = a - 1 / a
        p1 = (k_inv * b).scale((q - 1 / q) / (a * inv_a)) - ident.scale((q / a - a / q) / inv_a)
        q1 = (b * k_inv).scale((q - 1 / q) / (a * a_inv)) - ident.scale((a * q - 1 / (a * q)) / a_inv)
        expect_zero(failures, f"{tag}inverse pair (K^-1 B, B K^-1): left product", p1 * q1 - ident)
        expect_zero(failures, f"{tag}inverse pair (K^-1 B, B K^-1): right product", q1 * p1 - ident)
        p2 = (b_inv * k).scale(a * (q - 1 / q) / a_inv) - ident.scale((a * q - 1 / (a * q)) / a_inv)
        q2 = (k * b_inv).scale(a * (q - 1 / q) / inv_a) - ident.scale((q / a - a / q) / inv_a)
        expect_zero(failures, f"{tag}inverse pair (B^-1 K, K B^-1): left product", p2 * q2 - ident)
        expect_zero(failures, f"{tag}inverse pair (B^-1 K, K B^-1): right product", q2 * p2 - ident)
    return not failures, failures


def check_H_conjugation_of_splits(lus: LusztigData, pair):
    """The eight conjugation identities for the split maps under H.

    H^-1 B H = a A - a^2 B^-1 and H^-1 K H = a^-1 A - a^-2 K^-1 (with the
    down analogues), plus the reformulations H B^-1 H^-1 = a^-1 A - a^-2 B
    and H K^-1 H^-1 = a A - a^2 K (with the down analogues); the right-hand
    sides are the closed forms kept on `s`.
    Returns (passed, failures) as (name, residual).
    """
    h, h_inv = lus.H, lus.H_inv
    s, down = pair
    (conj, conj_inv), (conj_down, conj_inv_down) = s.conjugates, down.conjugates
    failures = []
    cases = [
        ("H^-1 B H = a A - a^2 B^-1", h_inv * s.B * h, conj["B"]),
        ("H^-1 K H = a^-1 A - a^-2 K^-1", h_inv * s.K * h, conj["K"]),
        ("H^-1 Bdown H = a A - a^2 Bdown^-1", h_inv * down.B * h, conj_down["B"]),
        ("H^-1 Kdown H = a^-1 A - a^-2 Kdown^-1", h_inv * down.K * h, conj_down["K"]),
        ("H B^-1 H^-1 = a^-1 A - a^-2 B", h * s.B.inverse() * h_inv, conj_inv["B"]),
        ("H K^-1 H^-1 = a A - a^2 K", h * s.K.inverse() * h_inv, conj_inv["K"]),
        ("H Bdown^-1 H^-1 = a^-1 A - a^-2 Bdown", h * down.B.inverse() * h_inv, conj_inv_down["B"]),
        ("H Kdown^-1 H^-1 = a A - a^2 Kdown", h * down.K.inverse() * h_inv, conj_inv_down["K"]),
    ]
    for name, lhs, rhs in cases:
        expect_zero(failures, name, lhs - rhs)
    return not failures, failures


def check_R_ladder(model: TDModel, s: SplitMaps, spectra: LadderSpectra):
    """The raising-ladder properties of R = A - a K - a^-1 K^-1.

    U_0, ..., U_d are the eigenspaces of K for q^d, ..., q^-d, taken from
    `spectra`. With U_i's basis as the columns of a matrix:
    a K + a^-1 K^-1 acts as theta_i on U_i; R maps U_i into U_(i+1), that is
    (K - q^(d-2i-2) I) R kills U_i; R kills U_d. Then R^(d+1) = 0 and
    RK = q^2 KR. Returns (passed, failures) as (name, residual).
    """
    p = model.params
    q, a, d = p.q, p.a, p.d
    parts = spectra.decomposition(s.K).parts
    eigs = spectra.eigenvalues
    theta_map = s.K.scale(a) + s.K.inverse().scale(1 / a)
    r = model.A - theta_map
    failures = []
    for i, part in enumerate(parts):
        u = Matrix(list(zip(*part.basis)))
        expect_zero(
            failures, f"(a K + a^-1 K^-1) acts as theta_{i} on U_{i}", theta_map * u - u.scale(model.theta[i])
        )
        ru = r * u
        if i < d:
            expect_zero(failures, f"R U_{i} inside U_{i + 1}", s.K * ru - ru.scale(eigs[i + 1]))
        else:
            expect_zero(failures, "R kills the top part", ru)
    expect_zero(failures, f"R^{d + 1} = 0", reduce(mul, [r] * (d + 1)))
    expect_zero(failures, "R K = q^2 K R", r * s.K - (s.K * r).scale(q * q))
    return not failures, failures


def check_MN_conjugation(lus: LusztigData, pair, spectra: LadderSpectra):
    """M, N, Mdown and Ndown are diagonalizable on the q-ladder; H^-1 M H = N and H^-1 Mdown H = Ndown, exactly.

    The four decompositions are left in `spectra`; a matrix off the ladder
    raises ModelError (ParameterError when a is 1 or -1).
    """
    s, down = pair
    for mat in (s.M, s.N, down.M, down.N):
        spectra.decomposition(mat)
    failures = []
    for name, m, n in (("H^-1 M H = N", s.M, s.N), ("H^-1 Mdown H = Ndown", down.M, down.N)):
        expect_zero(failures, name, lus.H_inv * m * lus.H - n)
    return not failures, failures


def check_L_conjugation(model: TDModel, lus: LusztigData):
    """L(A*) = H^-1 A* H, L^-1(A*) = H A* H^-1, and H^-1 A H = A, all exactly.

    Returns (passed, residuals) keyed by identity name.
    """
    residuals = {
        "L(A*) = H^-1 A* H": lus.LAstar - lus.H_inv * model.Astar * lus.H,
        "L^-1(A*) = H A* H^-1": lus.LinvAstar - lus.H * model.Astar * lus.H_inv,
        "H^-1 A H = A": lus.H_inv * model.A * lus.H - model.A,
    }
    return all(r.is_zero() for r in residuals.values()), residuals


def check_L_entrywise(model: TDModel, lus: LusztigData):
    """E_i L(A*) E_j = t_ij E_i A* E_j for |i-j| <= 1, both sides zero beyond.

    Both sides are read as blocks in the eigenbasis of A; a product
    E_i X E_j is formed only as the witness of a nonzero block.
    Returns (passed, failures) with failures as (i, j, residual).
    """
    failures = []
    p = model.params
    dec = model.eigenspaces_A
    basis, basis_inv = dec.basis_matrix(), dec.basis_inverse()
    image, star = basis_inv * lus.LAstar * basis, basis_inv * model.Astar * basis

    def witness(i, j, x):
        failures.append((i, j, dec.projector([i]) * x * dec.projector([j])))

    for i in range(p.d + 1):
        for j in range(p.d + 1):
            if abs(i - j) <= 1:
                t = t_coeff(i, j, p)
                if not dec.block_is_zero(image - star.scale(t), i, j):
                    witness(i, j, lus.LAstar - model.Astar.scale(t))
            elif not dec.block_is_zero(image, i, j):
                witness(i, j, lus.LAstar)
            elif not dec.block_is_zero(star, i, j):
                witness(i, j, model.Astar)
    return not failures, failures


def expand_H(model: TDModel, r: int, variant: str = "ascending") -> tuple[Matrix, Matrix]:
    """Evaluate one terminating polynomial expansion of H and its H^-1 partner in A.

    ascending (anchor r): t_r sum_i a^i q^(i(d-2r)) (A-th_r)...(A-th_(r+i-1)) / (q^2;q^2)_i,
    valid on V_r + ... + V_d.
    descending (anchor s=r): t_s sum_i a^-i q^(i(2s-d)) (A-th_s)...(A-th_(s-i+1)) / (q^2;q^2)_i,
    valid on V_0 + ... + V_s.
    The H^-1 expansion flips a -> 1/a, q -> 1/q and uses 1/t_r; it sums the
    same products of (A - theta I) factors, so both are built from one chain.
    Returns (expansion of H, expansion of H^-1).
    """
    d = model.d
    if not 0 <= r <= d:
        raise ParameterError(f"anchor index {r} out of range 0..{d}")
    if variant not in ("ascending", "descending"):
        raise ParameterError(f"variant must be 'ascending' or 'descending', got {variant!r}")
    p = model.params
    q, a = p.q, p.a
    ident = Matrix.identity(model.dim)
    tr = p.ts[r]
    out = out_inv = ident.scale(0)
    running = ident  # the growing product of (A - theta I) factors
    coeff = ONE  # the growing power of the step below
    if variant == "ascending":
        length, step = d - r, a * q ** (d - 2 * r)
    else:
        length, step = r, q ** (2 * r - d) / a
    for i in range(length + 1):
        if i > 0:
            idx = (r + i - 1) if variant == "ascending" else (r - i + 1)
            running = running * (model.A - ident.scale(model.theta[idx]))
            coeff *= step
        out = out + running.scale(coeff / p.q2_poch[i])
        out_inv = out_inv + running.scale(1 / (coeff * p.q2_inv_poch[i]))
    return out.scale(tr), out_inv.scale(1 / tr)


def check_H_expansions(model: TDModel, lus: LusztigData):
    """All four expansion families agree with H or H^-1 on their stated flags.

    Each call of `expand_H` gives the H and H^-1 expansions at one anchor.
    The residual (expansion - H^(+-1)) is multiplied by the flag's columns
    of P, the eigenspace bases of its parts. Those columns are a basis of
    the flag, so a zero product proves that the expansion equals H^(+-1)
    on the whole flag. A failing residual's witness is the residual times
    the exact flag projector.
    Returns (passed, failures) as (variant, inverse, r, residual).
    """
    failures = []
    dec = model.eigenspaces_A
    d = model.d
    for variant in ("ascending", "descending"):
        expansions = [expand_H(model, r, variant) for r in range(d + 1)]
        for inverse, target in ((False, lus.H), (True, lus.H_inv)):
            for r in range(d + 1):
                # the flag V_r+...+V_d (ascending) or V_0+...+V_r (descending)
                parts = range(r, d + 1) if variant == "ascending" else range(r + 1)
                columns = chain.from_iterable(dec[k].numerators for k in parts)
                resid = expansions[r][inverse] - target
                if any(sum(map(mul, row, col)) for col in columns for row in resid.numerators):
                    failures.append((variant, inverse, r, resid * dec.projector(parts)))
    return not failures, failures


def shifted_product_images(dec: Decomposition, x: Matrix, y: Matrix, x_shifts, y_shifts) -> list[Subspace]:
    """The image of each part W_i of `dec` under (X - c_i I)(Y - b_i I).

    c_i and b_i are the i-th entries of `x_shifts` and `y_shifts`, Fractions. Each
    basis vector p of W_i is mapped on integer numerators: with b = b_n/b_d,
    c = c_n/c_d, X = X_n/d_x and Y = Y_n/d_y, the vector w = b_d Y_n p - b_n d_y p
    is a nonzero multiple of (Y - b I) p, and c_d X_n w - c_n d_x w one of
    (X - c I)(Y - b I) p. The parts are eliminated only where an image is nonzero.
    """
    if not x.rows == x.cols == y.rows == y.cols == dec.ambient_dim:
        raise ShapeError(f"shifted product of {x.rows}x{x.cols} and {y.rows}x{y.cols} on Q^{dec.ambient_dim}")
    n, dx, dy = x.rows, x.denominator, y.denominator
    images = []
    for part, c, b in zip(dec.parts, x_shifts, y_shifts):
        vectors = []
        for p in part.numerators:
            w = [b.denominator * sum(map(mul, row, p)) - b.numerator * dy * e for row, e in zip(y.numerators, p)]
            z = [c.denominator * sum(map(mul, row, w)) - c.numerator * dx * e for row, e in zip(x.numerators, w)]
            vectors.append(z)
        images.append(_span(n, vectors) if any(map(any, vectors)) else Subspace.zero(n))
    return images


def qweyl_ladder(x: Matrix, y: Matrix, q: Fraction, spectra: LadderSpectra):
    """The ladder and crossing-flag consequences of the q-Weyl pair (X, Y).

    The q-Weyl relation itself is tested by `qweyl_residual`, not here.
    Precondition, reported distinctly: both are diagonalizable with the
    eigenvalues q^d, ..., q^-d of `spectra`. Then
    (i) (X - q^-2 lam I)(Y - lam^-1 I) kills the lam-eigenspace of X for each
    eigenvalue lam, and (ii) Y_0+...+Y_i = X_(d-i)+...+X_d for every i.
    Step (i) maps the basis vectors of X's eigenspaces, with no elimination
    unless a step fails; the witness is then the image of the eigenspace.
    Step (ii) is read off the change of basis between the two eigenbases.
    Eigenspace decompositions come from `spectra`, whose q is the pair's.
    Returns (passed, failures).
    """
    try:
        x_dec = spectra.decomposition(x)
        y_dec = spectra.decomposition(y)
    except ModelError as exc:
        return False, [("precondition", f"eigenvalue ladder missing: {exc}")]
    failures = []
    eigs = spectra.eigenvalues
    lowered, inverted = [lam / (q * q) for lam in eigs], [1 / lam for lam in eigs]
    images = shifted_product_images(x_dec, x, y, lowered, inverted)
    for lam, image in zip(eigs, images):
        if not image.is_zero():
            failures.append((f"ladder step from X-eigenvalue {lam}", image))
    for i in y_dec.flag_mismatches(x_dec.inversion()):
        failures.append((f"crossing flags at {i}", "Y_0+...+Y_i != X_(d-i)+...+X_d"))
    return not failures, failures


def ladders(ctx):
    # The table check has tested the q-Weyl relation of every pair, also in
    # a row with a singular member; a pair that fails it fails its precondition.
    # A mirrored context holds rows 1-4 alone; the oracle walks all eight.
    q = ctx.model.params.q
    failed = {(label, name) for label, name, _ in ctx.table_check[1]}
    table = build_triple_table(ctx.split_maps, ctx.spectra) if ctx.mirrored else ctx.triple_table
    for label, x, y, z in table:
        for pair_name, left, right in (("X,Y", x, y), ("Y,Z", y, z), ("Z,X", z, x)):
            if (label, f"q-Weyl ({pair_name})") in failed:
                return False, f"row {label} pair ({pair_name}): precondition"
            ok, failures = qweyl_ladder(left, right, q, ctx.spectra)
            if not ok:
                return False, f"row {label} pair ({pair_name}): {failures[0][0]}"
    return True, None
