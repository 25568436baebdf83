"""Benchmark pipeline, kernel verification sweep, and JSON problem configs.

run_benchmark drives geometry -> sources -> matrix -> training -> test-point
evaluation -> metrics, writes summary.json / field.csv / loss.csv, and is
fully deterministic for a fixed seed (wall time lives only in summary.json,
never in the CSVs).
"""

import dataclasses
import hashlib
import inspect
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels as kn
from . import operators as ops
from .benchmarks import BUILTINS, ProblemSetup
from .errors import ConfigurationError
from .geometry import SourceSet, gen_sources, load_nodes
from .kernels import (
    KernelFamily,
    elastic_block,
    kernel_block,
    tcomplete_member_block,
    tcomplete_members,
)
from .metrics import build_metrics, write_field_csv
from .network import (
    PikfnnModel,
    apply_row_weights,
    assemble,
    forward,
    forward_displacement,
    forward_stress,
)
from .operators import OperatorSpec, steady_operator_fd_block, time_operator_fd_block
from .registry import list_kernel_ids, parse_kernel_id
from .training import ScaledProblem, TrainConfig, train_problem, write_loss_csv

log = logging.getLogger(__name__)


@dataclass
class RunResult:
    setup: ProblemSetup
    model: PikfnnModel
    metrics: object
    train_report: object
    extras: dict = field(default_factory=dict)
    out_dir: str = None


def run_benchmark(problem, seed=0, out_dir=None, train=None, **params):
    """Execute one problem (builtin name, ProblemConfig, or ProblemSetup)
    end to end; the training and metrics summaries are logged at INFO."""
    if isinstance(problem, str):
        setup = _builtin_setup(problem, seed, train, params)
    elif isinstance(problem, ProblemConfig):
        setup = setup_from_config(problem)
    else:
        setup = problem

    model = PikfnnModel(setup.families, setup.sources, setup.colloc.dim)
    report = train_problem(model, _training_problem(setup), setup.train)
    if setup.pretrained:
        # append the source-fitted annihilator families (fixed weights)
        fams = list(setup.families) + [f for f, _ in setup.pretrained]
        weights = np.concatenate([model.weights] + [w for _, w in setup.pretrained])
        model = PikfnnModel(fams, setup.sources, setup.colloc.dim, weights=weights)
    log.info("[%s] trained: loss %.3e (%d iters, stop %s)", setup.name,
             report.final_loss, report.iters, report.stop_reason)

    extras = {}
    if setup.post == "stress":
        pred = forward_displacement(model, setup.test_points)[:, 1]
        point = np.asarray(setup.notes["stress_point"], dtype=float)
        sig = forward_stress(model, [point])[0]
        s11, s22 = setup.notes["sigma11_exact"], setup.notes["sigma22_exact"]
        extras["sigma"] = {
            "point": point.tolist(),
            "sigma11": float(sig[0]), "sigma22": float(sig[1]),
            "sigma12": float(sig[2]),
            "rerr_sigma11": float((sig[0] - s11) / s11),
            "rerr_sigma22": float((sig[1] - s22) / s22),
        }
    else:
        pred = forward(model, setup.test_points, times=setup.test_times)
    metrics = build_metrics(setup.test_points, pred, setup.test_values,
                            times=setup.test_times, rerr_floor=setup.rerr_floor)
    log.info("[%s] L2 %.3e  max|rerr| %.3e R^2 %.6f (excluded %s)", setup.name,
             metrics.l2, metrics.max_rerr, metrics.r_squared, metrics.excluded)

    result = RunResult(setup=setup, model=model, metrics=metrics,
                       train_report=report, extras=extras, out_dir=out_dir)
    if out_dir:
        _write_outputs(result, seed)
    return result


def _training_problem(setup):
    """The scaled least-squares problem of the setup's rows.  The unscaled
    design matrix lives only in this frame, so training runs without it."""
    matrix = assemble(setup.families, setup.sources, setup.colloc,
                      governing=setup.operator)
    targets = setup.colloc.values
    if setup.row_weights:
        matrix, targets = apply_row_weights(matrix, targets, setup.row_weights)
    return ScaledProblem(matrix, targets)


def _config_hash(setup, seed):
    doc = {
        "name": setup.name,
        "kernels": setup.kernel_ids,
        "rows": len(setup.colloc),
        "sources": len(setup.sources),
        "seed": seed,
        "train": dataclasses.asdict(setup.train),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _write_outputs(result, seed):
    os.makedirs(result.out_dir, exist_ok=True)
    setup, rep = result.setup, result.train_report
    write_field_csv(os.path.join(result.out_dir, "field.csv"), result.metrics,
                    dim=setup.test_points.shape[1],
                    has_time=setup.test_times is not None)
    write_loss_csv(os.path.join(result.out_dir, "loss.csv"), rep)
    summary = {
        "name": setup.name,
        "seed": seed,
        "config_hash": _config_hash(setup, seed),
        "kernels": setup.kernel_ids,
        "rows": len(setup.colloc),
        "neurons": result.model.width,
        "test_points": int(setup.test_points.shape[0]),
        "metrics": {
            "l2": result.metrics.l2,
            "max_rerr": result.metrics.max_rerr,
            "r_squared": result.metrics.r_squared,
            "excluded_from_max_rerr": result.metrics.excluded,
        },
        "train": {"optimizer": setup.train.optimizer, "wall_time_s": rep.wall_time} | {
            key: getattr(rep, key) for key in ("final_loss", "iters", "stop_reason",
                                               "cond_estimate", "effective_rank",
                                               "rejected_steps")},
        "notes": setup.notes,
    }
    summary.update(result.extras)
    with open(os.path.join(result.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def check_exact_solution(setup, n_points=20, seed=5, tol=1e-5):
    """FD residual of the built-in analytic solution against its operator
    (guards against transcription slips in the hard-coded solutions)."""
    if setup.exact is None or setup.operator.kind == ops.ELASTOSTATIC:
        return 0.0
    rng = np.random.default_rng(seed)
    X = setup.test_points[rng.integers(0, setup.test_points.shape[0], size=n_points)]
    if setup.operator.is_time_dependent:
        T = 0.4 + 0.5 * rng.random(n_points)
        res = time_operator_fd_block(setup.operator, setup.exact, X, T)
        base = setup.exact(X, T)
        if setup.source_fn is not None:  # nonhomogeneous: L0 u = f
            res = res - setup.source_fn(X, T)
    else:
        res = steady_operator_fd_block(setup.operator, setup.exact, X)
        base = setup.exact(X)
        if setup.source_fn is not None:
            res = res - setup.source_fn(X)
    worst = _worst(res, base)
    if worst > tol:
        raise ConfigurationError(
            f"analytic solution of {setup.name} violates its PDE (residual {worst:.2e})")
    return worst


# ---------------------------------------------------------------------------
# verify-kernels

@dataclass
class VerifyRow:
    name: str
    max_residual: float
    tol: float

    @property
    def passed(self):
        return self.max_residual <= self.tol


def _tol_for(op):
    high_order = op.kind in (ops.BIHARMONIC,) + ops.POWER_KINDS
    return 1e-4 if high_order else 1e-5


def _worst(res, values):
    """Largest residual relative to max(|value|, 1) over the sample points."""
    return float(np.max(np.abs(res) / np.maximum(np.abs(values), 1.0), initial=0.0))


def _sample_shell(rng, n, dim):
    """(directions, radii) of n sample points: unit directions (n, dim) from
    one normal draw, then radii (n,) uniform in [0.5, 2] from one uniform
    draw."""
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1)[:, None], 0.5 + 1.5 * rng.random(n)


def _steady_check(family, n_points, seed):
    op = family.operator
    S = np.zeros((1, op.dim))
    d, r = _sample_shell(np.random.default_rng(seed), n_points, op.dim)
    X = r[:, None] * d

    def fn(P):
        return np.real(kernel_block(family, P, S)[:, 0])

    return _worst(steady_operator_fd_block(op, fn, X), fn(X))


def _time_check(family, n_points, seed):
    op = family.operator
    rng = np.random.default_rng(seed)
    positive = op.kind == ops.STRUCTURAL_DIFFUSION
    s = np.full(op.dim, 3.0) if positive else np.zeros(op.dim)
    # source time: every stencil point stays causal (inside the light cone
    # for the wave kernel)
    tau = 0.1 if positive else (0.0 if op.kind == ops.WAVE else -1.5)
    d, r = _sample_shell(rng, n_points, op.dim)
    X = s + r[:, None] * d
    if op.kind == ops.WAVE:
        T = r / op.c1 + 1.5 + rng.random(n_points)
    else:
        T = 0.5 + 1.5 * rng.random(n_points) + (1.0 if positive else 0.0)

    def fn(P, Tp):
        return kernel_block(family, P, s[None, :], Tp, [tau])[:, 0]

    return _worst(time_operator_fd_block(op, fn, X, T), fn(X, T))


def _tcomplete_check(family, n_points, seed):
    # every member gets `per` points, drawn member after member; one oracle
    # call covers them all, and fn hands each member its own rows' points
    op = family.operator
    members = tcomplete_members(family)
    per = max(2, n_points // len(members))
    d, r = _sample_shell(np.random.default_rng(seed), len(members) * per, op.dim)
    X = r[:, None] * d

    def fn(P):
        return np.concatenate([tcomplete_member_block(family, index, block) for index, block
                               in zip(members, np.split(P, len(members)))])

    return _worst(steady_operator_fd_block(op, fn, X), fn(X))


def _elastic_check(family, n_points, seed):
    # Kelvin columns must satisfy sigma_ij,j = 0 away from the source: div
    # sigma by central differences of sigma, itself from central differences
    # of the displacement values (16 points per sample, one block call)
    op = family.operator
    lam = 2 * op.shear * op.nu / (1 - 2 * op.nu)
    rng = np.random.default_rng(seed)
    h = 3e-4
    n = max(10, n_points // 5)
    d, r = _sample_shell(rng, n, 2)
    X = r[:, None] * d
    comps = rng.integers(1, 3, size=n)
    steps = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])  # +-e_1, +-e_2
    outer = X[:, None, :] + steps[None, :, :]
    stencil = outer[:, :, None, :] + steps[None, None, :, :]
    kelvin = elastic_block(op, stencil.reshape(-1, 2), np.zeros((1, 2)))
    # u[p, o, i, l]: displacement l of force component comps[p] at stencil[p, o, i]
    u = kelvin.reshape(n, 4, 4, 2, 2)[np.arange(n), :, :, :, comps - 1]
    grad = ((u[:, :, 0::2] - u[:, :, 1::2]) / (2 * h)).swapaxes(-1, -2)  # d u_l / d x_j
    eps = 0.5 * (grad + grad.swapaxes(-1, -2))
    sigma = lam * np.trace(eps, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) \
        + 2 * op.shear * eps
    div = (sigma[:, 0, :, 0] - sigma[:, 1, :, 0]) / (2 * h) \
        + (sigma[:, 2, :, 1] - sigma[:, 3, :, 1]) / (2 * h)
    return float(np.max(np.linalg.norm(div, axis=1)) / op.shear)


def build_verify_entries(pattern=None):
    """(name, check callable, tol) triples over the registered catalog."""
    entries = []
    for ident in list_kernel_ids():
        if pattern and pattern not in ident:
            continue
        family = parse_kernel_id(ident)
        op = family.operator
        tol = _tol_for(op)
        if family.kind in (kn.ELASTO_DISP, kn.ELASTO_TRAC):
            if family.kind == kn.ELASTO_TRAC:
                continue  # traction columns derive from the same Kelvin field
            fam = KernelFamily(family.kind, OperatorSpec(
                ops.ELASTOSTATIC, 2, nu=0.3, shear=1.0))
            entries.append((ident, lambda n, s, f=fam: _elastic_check(f, n, s), 1e-4))
        elif family.kind == kn.T_COMPLETE:
            entries.append((ident, lambda n, s, f=family: _tcomplete_check(f, n, s), tol))
        elif op.is_time_dependent:
            entries.append((ident, lambda n, s, f=family: _time_check(f, n, s), tol))
        else:
            entries.append((ident, lambda n, s, f=family: _steady_check(f, n, s), tol))
    if pattern and not entries:
        raise ConfigurationError(f"no kernels matched filter {pattern!r}")
    return entries


def verify_kernels(pattern=None, n_points=100, seed=12345, entries=None):
    """FD PDE-residual sweep across the catalog; returns (rows, all_passed).
    Each entry is logged, a pass at INFO and a failure at WARNING."""
    if entries is None:
        entries = build_verify_entries(pattern)
    rows = []
    for name, check, tol in entries:
        worst = check(n_points, seed)
        row = VerifyRow(name=name, max_residual=float(worst), tol=tol)
        rows.append(row)
        log.log(logging.INFO if row.passed else logging.WARNING,
                "%s  %-60s residual %.3e (tol %g)", "pass" if row.passed else "FAIL",
                name, worst, tol)
    return rows, all(r.passed for r in rows)


# ---------------------------------------------------------------------------
# JSON problem configs (mirrors ProblemConfig field names)

@dataclass
class ProblemConfig:
    name: str = "custom"
    builtin: str = None
    operator: dict = None
    kernels: list = field(default_factory=list)
    geometry: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    test: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    rerr_floor: float = 0.0
    seed: int = 0


def load_problem_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _require_known("config fields", doc, ProblemConfig.__dataclass_fields__)
    cfg = ProblemConfig(**doc)
    base = os.path.dirname(os.path.abspath(path))
    for section in (cfg.geometry, cfg.sources, cfg.test):
        if isinstance(section, dict) and "node_file" in section:
            section["node_file"] = os.path.join(base, section["node_file"])
            if not os.path.exists(section["node_file"]):
                raise ConfigurationError(f"node file not found: {section['node_file']}")
    return cfg


def _require_known(what, keys, valid):
    unknown = sorted(set(keys) - set(valid))
    if unknown:
        raise ConfigurationError(f"unknown {what} {unknown}; valid: {sorted(valid)}")


def _check_train(seed, train):
    """Raise ConfigurationError on an unknown train field, or on a bad value
    of one or of the seed, before any set-up runs."""
    _require_known("train fields", train, TrainConfig.__dataclass_fields__)
    TrainConfig(**train)
    TrainConfig(seed=seed)


def _builtin_setup(name, seed, train, params):
    """The built-in's ProblemSetup; an unknown name, train field or
    parameter raises ConfigurationError naming the valid ones."""
    if name not in BUILTINS:
        raise ConfigurationError(f"unknown builtin {name!r}; available: {sorted(BUILTINS)}")
    _check_train(seed, train or {})
    _require_known(f"params of {name}", params,
                   set(inspect.signature(BUILTINS[name]).parameters) - {"seed", "train"})
    return BUILTINS[name](seed=seed, train=train, **params)


def setup_from_config(cfg):
    """ProblemSetup from a config (builtin reference or fully custom)."""
    if cfg.builtin:
        return _builtin_setup(cfg.builtin, cfg.seed, cfg.train or None, cfg.params)

    if not cfg.kernels:
        raise ConfigurationError("custom config needs a kernels list")
    _check_train(cfg.seed, cfg.train)
    families = [parse_kernel_id(ident) for ident in cfg.kernels]
    if cfg.operator:
        op = OperatorSpec(**cfg.operator)
        for fam in families:
            if fam.operator.dim != op.dim:
                raise ConfigurationError(
                    f"kernel {cfg.kernels[0]} dim != operator dim {op.dim}")
    else:
        op = families[0].operator

    if "node_file" not in cfg.geometry:
        raise ConfigurationError("custom config geometry needs node_file "
                                 "(boundary/initial rows + values)")
    colloc = load_nodes(cfg.geometry["node_file"])

    if "node_file" in cfg.sources:
        src_set = load_nodes(cfg.sources["node_file"])
        sources = SourceSet(src_set.points, times=src_set.times)
    elif "placement" in cfg.sources:
        kwargs = {k: v for k, v in cfg.sources.items() if k != "placement"}
        placement = cfg.sources["placement"]
        base = colloc if placement == "same_nodes_with_delay" else colloc.points
        sources = gen_sources(base, placement, **kwargs)
    else:
        raise ConfigurationError("custom config sources need node_file or placement")

    if "node_file" not in cfg.test:
        raise ConfigurationError("custom config test needs node_file with "
                                 "reference values")
    test_set = load_nodes(cfg.test["node_file"])

    return ProblemSetup(
        name=cfg.name, operator=op, families=families, colloc=colloc,
        sources=sources, train=TrainConfig(**{"seed": cfg.seed, **cfg.train}),
        test_points=test_set.points, test_values=test_set.values,
        test_times=test_set.times, rerr_floor=cfg.rerr_floor,
        notes={"config": "custom"})
