"""Batch verification: run named check suites over parameter-set or file targets.

Every check is declared in one table, `SUITES`, which maps each suite name
to its checks in report order; a check is (check id, detail, check), and
check(ctx) returns (passed, witness) for one target's `TargetContext`.
The context builds the structures its checks share (H, the split maps,
the triple table, eigenspace decompositions) once, on first use.
Targets run in declared order, suites in the order requested, and the
report is deterministic apart from timing fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from . import equitable, lusztig, splitmaps
from .linalg import Matrix, ShapeError
from .lusztig import LusztigData
from .model import (
    ModelError,
    TDModel,
    build_model,
    recover_a,
    solve_phi,
    spectrum_path,
)
from .modelio import ModelIOError, import_model
from .report import CHECK_ERRORS, Report
from .scalars import (
    ParameterError,
    ParamSet,
    check_chu_vandermonde,
    p_poly,
    parse_scalar,
    t_coeff,
)

class ConfigError(ValueError):
    """Raised for unreadable or malformed suite configuration."""


@dataclass(frozen=True)
class Target:
    """One verification target: inline parameters or a model-file path."""

    label: str
    raw: tuple | None = None  # (d, q, a, b, phi) for parameter targets
    path: str | None = None  # model-file targets


def make_param_target(d: int, q, a, b, phi=()) -> Target:
    label = f"d={d} q={q} a={a} b={b}"
    return Target(label=label, raw=(d, q, a, b, tuple(phi)))


def make_file_target(path: str) -> Target:
    return Target(label=path, path=path)


@dataclass
class SuiteConfig:
    targets: list[Target]
    suites: tuple[str, ...] = ("all",)
    output: str | None = None

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigError("config needs at least one target")
        if not self.suites:
            raise ConfigError("config needs at least one suite; 'suites' is empty")
        expanded = []
        for name in self.suites:
            if name == "all":
                expanded.extend(SUITE_NAMES)
            elif name in SUITE_NAMES:
                expanded.append(name)
            else:
                raise ConfigError(
                    f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES + ('all',))}"
                )
        deduped = []
        for name in expanded:
            if name not in deduped:
                deduped.append(name)
        self.suites = tuple(deduped)


CONFIG_KEYS = ("targets", "suites", "output")
PARAM_TARGET_KEYS = ("d", "q", "a", "b", "phi")


def _reject_unknown_keys(where: str, data: dict, valid: tuple[str, ...]) -> None:
    unknown = [key for key in data if key not in valid]
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; valid: {', '.join(valid)}")


def _target_from_spec(spec: dict, index: int) -> Target:
    if not isinstance(spec, dict):
        raise ConfigError(f"target {index}: must be an object")
    if "file" in spec:
        _reject_unknown_keys(f"target {index} (a file target)", spec, ("file",))
        if not isinstance(spec["file"], str):
            raise ConfigError(f"target {index}: 'file' must be a string, got {spec['file']!r}")
        return make_file_target(spec["file"])
    _reject_unknown_keys(f"target {index}", spec, PARAM_TARGET_KEYS)
    phi = spec.get("phi", [])
    if not isinstance(phi, list):
        raise ConfigError(f"target {index}: 'phi' must be a list, got {type(phi).__name__}")
    if "d" in spec and type(spec["d"]) is not int:  # a JSON integer; true and false are bools
        raise ConfigError(f"target {index}: 'd' must be an integer, got {json.dumps(spec['d'])}")
    try:
        d = spec["d"]
        q = parse_scalar(str(spec["q"]))
        a = parse_scalar(str(spec["a"]))
        b = parse_scalar(str(spec["b"]))
        phi = tuple(parse_scalar(str(t)) for t in phi)
    except KeyError as exc:
        raise ConfigError(f"target {index}: missing key {exc}") from None
    except (ValueError, ParameterError) as exc:
        raise ConfigError(f"target {index}: {exc}") from None
    # ParamSet validation is deferred to run time so a hypothesis-violating
    # target becomes a per-target failure entry, not a config error.
    return make_param_target(d, q, a, b, phi)


def load_config(path: str) -> SuiteConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict) or "targets" not in data:
        raise ConfigError(f"{path}: config must be an object with a 'targets' list")
    _reject_unknown_keys(path, data, CONFIG_KEYS)
    if not isinstance(data["targets"], list):
        raise ConfigError(f"{path}: 'targets' must be a list of target objects, got {data['targets']!r}")
    targets = [_target_from_spec(t, i) for i, t in enumerate(data["targets"])]
    suites, output = data.get("suites", ["all"]), data.get("output")
    if not isinstance(suites, list) or not all(isinstance(name, str) for name in suites):
        raise ConfigError(f"{path}: 'suites' must be a list of suite names, got {suites!r}")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"{path}: 'output' must be a string, got {output!r}")
    return SuiteConfig(targets=targets, suites=tuple(suites), output=output)


def _first_witness(failures):
    if not failures:
        return None
    first = failures[0]
    if isinstance(first, tuple):
        return f"{first[:-1]}: {first[-1]}" if len(first) > 1 else first[0]
    return first


def _check(fn):
    """Adapt a (passed, failures-list) checker of the context to a check: (passed, first failure)."""

    def check(ctx):
        ok, failures = fn(ctx)
        return ok, None if ok else _first_witness(failures)

    return check


def _resolve_model(target: Target, report: Report) -> TDModel | None:
    """Build or import the target's model, recording failures on the report."""
    if target.path is not None:
        try:
            return import_model(target.path)
        except (ModelIOError, OSError) as exc:
            report.add("target.load", "read and parse the model file", False, str(exc))
            return None
        except (ParameterError, ModelError, ShapeError) as exc:
            residual = getattr(exc, "residual", None)
            report.add(
                "target.load",
                "model file semantic validation",
                False,
                residual if residual is not None else str(exc),
            )
            return None
    d, q, a, b, phi = target.raw
    try:
        params = ParamSet(d, q, a, b, phi)
    except ParameterError as exc:
        report.add(
            "paramset.validate",
            "standing hypotheses on (d, q, a, b, phi)",
            False,
            str(exc),
        )
        return None
    try:
        if params.phi:
            return build_model(params)
        models = []
        if not solve_phi(d, params.q, params.a, params.b, limit=1, models=models):
            report.add(
                "model.solve_phi",
                "find a rational phi sequence passing the q-Dolan/Grady checks",
                False,
                "no rational solution found in the scanned family; vary parameters",
            )
            return None
        return models[0]
    except (ParameterError, ModelError) as exc:
        residual = getattr(exc, "residual", None)
        report.add(
            "model.build",
            "construct split-basis model",
            False,
            residual if residual is not None else str(exc),
        )
        return None


class TargetContext:
    """One target's model and the structures its checks share, each built once.

    Every structure is built on first use, inside the check that needs it
    first. A structure whose construction raises keeps its exception: each
    check that needs it raises it again, and the report records an error.
    """

    def __init__(self, model: TDModel):
        self.model = model
        self._built = {}

    def _once(self, name: str, build):
        if name not in self._built:
            try:
                self._built[name] = build()
            except CHECK_ERRORS as exc:
                self._built[name] = exc
        value = self._built[name]
        if isinstance(value, Exception):
            raise value
        return value

    @property
    def lusztig(self) -> LusztigData:
        return self._once("H", lambda: lusztig.build_H(self.model))

    @property
    def split_maps(self) -> splitmaps.SplitMaps:
        """K, B, Kdown, Bdown and their decompositions."""
        return self._once("split_maps", lambda: splitmaps.build_split_maps(self.model))

    @property
    def spectra(self) -> splitmaps.LadderSpectra:
        """Decompositions on the q-ladder; K, B, Kdown and Bdown come with their split decompositions.

        The H-conjugates and N, Ndown are registered as transports:
        H^-1 X H from X and H X^-1 H^-1 from X^-1 for each split map X, and
        N = H^-1 M H, Ndown = H^-1 Mdown H. Without H (its construction
        raised) nothing is transported, and the kernels decide.
        """

        def build():
            s = self.split_maps
            known = ((s.K, s.dec_K), (s.B, s.dec_B), (s.Kdown, s.dec_Kdown), (s.Bdown, s.dec_Bdown))
            try:
                lus = self.lusztig
            except CHECK_ERRORS:
                return splitmaps.LadderSpectra(self.model.d, self.model.params.q, known)
            conj, conj_inv = s.conjugates
            transports = [(s.N, lus.H_inv, s.M), (s.Ndown, lus.H_inv, s.Mdown)]
            for name in ("K", "B", "Kdown", "Bdown"):
                x = getattr(s, name)
                transports += [(conj[name], lus.H_inv, x), (conj_inv[name], lus.H, x.inverse())]
            return splitmaps.LadderSpectra(self.model.d, self.model.params.q, known, transports)

        return self._once("spectra", build)

    @property
    def triple_table(self):
        """The eight (label, X, Y, Z) rows of `equitable.build_triple_table`."""
        return self._once(
            "triple_table", lambda: equitable.build_triple_table(self.split_maps)
        )

    @property
    def table_check(self):
        """The `verify_triple_table` verdict on the triple table."""
        return self._once(
            "table_check", lambda: equitable.verify_triple_table(self.model, self.triple_table)
        )


def _distinct(ctx: TargetContext):
    p = ctx.model.params
    return len(set(p.thetas)) == p.d + 1 and len(set(p.theta_stars)) == p.d + 1, None


def _adjacency(ctx: TargetContext):
    p = ctx.model.params
    thetas = p.thetas
    return all(p_poly(thetas[i - 1], thetas[i], p.q) == 0 for i in range(1, p.d + 1)), None


def _recurrence(ctx: TargetContext):
    p = ctx.model.params
    thetas = p.thetas
    return (
        all(thetas[i - 1] - (p.q**2 + p.q**-2) * thetas[i] + thetas[i + 1] == 0 for i in range(1, p.d)),
        None,
    )


def _t_coeff(ctx: TargetContext):
    p = ctx.model.params
    d = p.d
    return (
        all(t_coeff(i, i, p) == 1 for i in range(d + 1))
        and all(t_coeff(i - 1, i, p) * t_coeff(i, i - 1, p) == 1 for i in range(1, d + 1))
        and all(t_coeff(i - 1, i, p) == p.a**2 * p.q ** (2 * (d - 2 * i + 1)) for i in range(1, d + 1)),
        None,
    )


def _chu_vandermonde(ctx: TargetContext):
    ok, failures = check_chu_vandermonde(ctx.model.params)
    witness = None
    if failures:
        name, r, s, got, want = failures[0]
        witness = f"{name} at (r={r}, s={s}): {got} != {want}"
    return ok, witness


def _qdg(ctx: TargetContext):
    ok, residuals = ctx.model.qdg
    return ok, None if ok else next(r for r in residuals if not r.is_zero())


def _recover_a(ctx: TargetContext):
    model, p = ctx.model, ctx.model.params
    got = recover_a(model.theta[0], model.theta[1], p.d, p.q, model.theta)
    return got == p.a, None if got == p.a else f"recovered {got} != {p.a}"


def _astar_containment(ctx: TargetContext):
    # A* V_j lies in V_(j-1)+V_j+V_(j+1) exactly when every block (i, j)
    # of A* in A's eigenbasis with |i - j| > 1 is zero: the A* side of
    # the tridiagonal-action verdict.
    _, failures = ctx.model.tridiagonal_action
    escaping = [j for side, _, j, _ in failures if side == "E_i A* E_j"]
    if not escaping:
        return True, None
    j = min(escaping)
    return False, f"A* V_{j} escapes V_{j - 1}+V_{j}+V_{j + 1}"


def _L_conjugation(ctx: TargetContext):
    ok, residuals = lusztig.check_L_conjugation(ctx.model, ctx.lusztig)
    witness = None if ok else next(
        f"{name}: nonzero residual" for name, r in residuals.items() if not r.is_zero()
    )
    return ok, witness


def _inversion_inverts(ctx: TargetContext):
    s = ctx.split_maps
    for name, dec, mat in (
        ("K", s.dec_K, s.K),
        ("B", s.dec_B, s.B),
        ("Kdown", s.dec_Kdown, s.Kdown),
        ("Bdown", s.dec_Bdown, s.Bdown),
    ):
        inverted = splitmaps.map_from_decomposition(dec.inversion(), ctx.model.params.q)
        if inverted != mat.inverse():
            return False, f"map of inverted {name} decomposition != {name}^-1"
    return True, None


def _ladders(ctx: TargetContext):
    # The table check has tested the q-Weyl relation of every pair in a row
    # whose members are invertible; only a row with a singular member is tested here.
    q = ctx.model.params.q
    failed = {(label, name) for label, name, _ in ctx.table_check[1]}
    for label, x, y, z in ctx.triple_table:
        tested = not any((label, f"{member} invertible") in failed for member in "XYZ")
        for pair_name, left, right in (("X,Y", x, y), ("Y,Z", y, z), ("Z,X", z, x)):
            if tested and (label, f"q-Weyl ({pair_name})") in failed:
                return False, f"row {label} pair ({pair_name}): precondition"
            check = equitable.qweyl_ladder if tested else equitable.check_qweyl_ladder
            ok, failures = check(left, right, q, ctx.spectra)
            if not ok:
                return False, f"row {label} pair ({pair_name}): {failures[0][0]}"
    return True, None


# Every check, grouped by suite in report order: (check id, detail, check),
# where check(ctx) returns (passed, witness) for one target's context.
SUITES = {
    "scalars": (
        ("scalars.distinct", "theta_i pairwise distinct and theta*_i pairwise distinct", _distinct),
        ("scalars.adjacency", "P(theta_(i-1), theta_i) = 0 along the path", _adjacency),
        ("scalars.recurrence", "theta_(i-1) - (q^2+q^-2) theta_i + theta_(i+1) = 0", _recurrence),
        (
            "scalars.t_coeff",
            "t_ii = 1; t_ij t_ji = 1 for |i-j| = 1; t_(i-1,i) = a^2 q^(2(d-2i+1))",
            _t_coeff,
        ),
        (
            "scalars.t_seq",
            "product form of t_i equals a^(2i) q^(2i(d-i)) and is nonzero",
            lambda ctx: (all(t != 0 for t in ctx.model.params.ts), None),
        ),
        (
            "scalars.chu_vandermonde",
            "all four terminating summation identities over 0 <= r <= s <= d",
            _chu_vandermonde,
        ),
    ),
    "model": (
        ("model.qdg", "both q-Dolan/Grady relations, zero residual", _qdg),
        (
            "model.tridiagonal",
            "E_i A* E_j = 0 and E*_i A E*_j = 0 for |i-j| > 1",
            _check(lambda ctx: ctx.model.tridiagonal_action),
        ),
        (
            "model.irreducible",
            "no proper nonzero subspace invariant under both generators",
            lambda ctx: (ctx.model.irreducible, None),
        ),
        (
            "model.spectrum_path",
            "adjacency graph of the A-spectrum is the theta path",
            lambda ctx: (spectrum_path(ctx.model.theta, ctx.model.params.q), None),
        ),
        ("model.recover_a", "eigenvalue sequence returns the generating scalar a", _recover_a),
        ("model.astar_containment", "A* V_i inside V_(i-1) + V_i + V_(i+1)", _astar_containment),
    ),
    "lusztig": (
        (
            "lusztig.H_invertible",
            "H H^-1 = I with H^-1 from the 1/t_i eigenvalue form",
            lambda ctx: (ctx.lusztig.H * ctx.lusztig.H_inv == Matrix.identity(ctx.model.dim), None),
        ),
        (
            "lusztig.H_commutes_A",
            "H A = A H",
            lambda ctx: ((ctx.lusztig.H * ctx.model.A - ctx.model.A * ctx.lusztig.H).is_zero(), None),
        ),
        ("lusztig.conjugation", "L(A*) = H^-1 A* H; L^-1(A*) = H A* H^-1; H^-1 A H = A", _L_conjugation),
        (
            "lusztig.entrywise",
            "E_i L(A*) E_j = t_ij E_i A* E_j within the tridiagonal band",
            _check(lambda ctx: lusztig.check_L_entrywise(ctx.model, ctx.lusztig)),
        ),
        (
            "lusztig.eigenstructure",
            "L^(+-1)(A*) diagonalizable with theta* spectrum on H^(-+1)-shifted eigenspaces",
            _check(lambda ctx: lusztig.check_L_eigenstructure(ctx.model, ctx.lusztig)),
        ),
        (
            "lusztig.expansions",
            "all four polynomial expansion families match H or H^-1 on their flags",
            _check(lambda ctx: lusztig.check_H_expansions(ctx.model, ctx.lusztig)),
        ),
    ),
    "splitmaps": (
        (
            "split.flags",
            "each split decomposition satisfies both defining flag equalities",
            _check(lambda ctx: splitmaps.check_split_flags(ctx.model, ctx.split_maps)),
        ),
        ("split.inversion", "inverting a decomposition inverts its map", _inversion_inverts),
        (
            "split.KA_relations",
            "the bracket relations and inverse-pair statements for K, B and the down pair",
            _check(lambda ctx: splitmaps.check_KA_relations(ctx.model, ctx.split_maps)),
        ),
        (
            "split.H_conjugation",
            "all eight H-conjugation identities for the split maps",
            _check(lambda ctx: splitmaps.check_H_conjugation_of_splits(ctx.lusztig, ctx.split_maps)),
        ),
        (
            "split.R_ladder",
            "R = A - aK - a^-1 K^-1 raises the K-decomposition, R^(d+1) = 0, RK = q^2 KR",
            _check(lambda ctx: splitmaps.check_R_ladder(ctx.model, ctx.split_maps, ctx.spectra)),
        ),
        (
            "split.MN",
            "M, N and down analogues diagonalizable on the q-ladder; H^-1 M H = N",
            _check(lambda ctx: splitmaps.check_MN_conjugation(ctx.lusztig, ctx.split_maps, ctx.spectra)),
        ),
    ),
    "equitable": (
        (
            "equitable.table",
            "all eight rows pass the three cyclic q-Weyl relations",
            _check(lambda ctx: ctx.table_check),
        ),
        (
            "equitable.ladders",
            "ladder steps and crossing flags for every q-Weyl pair in the table",
            _ladders,
        ),
    ),
    "diagrams": (
        (
            "diagrams.verify",
            "N/M flag equalities, twisted-pair split maps, and the 3-cycle triples",
            _check(
                lambda ctx: equitable.verify_diagrams(
                    ctx.model, ctx.lusztig, ctx.split_maps, ctx.spectra, ctx.table_check
                )
            ),
        ),
    ),
}
SUITE_NAMES = tuple(SUITES)


def run_target(target: Target, suites) -> Report:
    report = Report(target.label)
    model = _resolve_model(target, report)
    if model is None:
        return report
    ctx = TargetContext(model)
    for name in suites:
        for check_id, detail, check in SUITES[name]:
            report.run(check_id, detail, partial(check, ctx))
    return report


def run_suite(cfg: SuiteConfig) -> list[Report]:
    """Run every configured suite on every target.

    Returns per-target reports in declared order; writes one JSON record per
    check to cfg.output when set.
    """
    reports = [run_target(t, cfg.suites) for t in cfg.targets]
    if cfg.output:
        lines = [line for rep in reports for line in rep.to_lines()]
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return reports


def all_passed(reports: list[Report]) -> bool:
    return all(rep.all_passed for rep in reports)
