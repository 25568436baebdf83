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
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import kernels as kn
from . import operators as ops
from .benchmarks import BUILTINS, ProblemSetup
from .errors import ConfigurationError
from .geometry import SourceSet, gen_sources, load_nodes
from .kernels import (
    elastic_block,
    kernel_block,
    plane_strain_stress,
    tcomplete_member_block,
    tcomplete_members,
)
from .metrics import build_metrics, write_field_csv
from .network import (
    PikfnnModel,
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
    """Execute one problem, a built-in name (train and params apply to it
    only) or a ProblemSetup, end to end; summaries are logged at INFO."""
    if isinstance(problem, str):
        setup = setup_from_config({"builtin": problem, "seed": seed, "train": train or {},
                                   "params": params})
    elif train or params:
        raise ConfigurationError("train and params apply to a built-in name only")
    else:
        setup = problem

    model = PikfnnModel(setup.families, setup.sources, setup.colloc.dim)
    # held by no name: the design matrix is freed before training, J and A after it
    report = train_problem(model, ScaledProblem(
        assemble(setup.families, setup.sources, setup.colloc, governing=setup.operator),
        setup.colloc.values, setup.row_weights), setup.train)
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


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
        # the CSV bytes follow the numpy build and the BLAS thread count
        "environment": {"numpy": np.__version__} | {
            var: os.environ.get(var) for var in _THREAD_VARS},
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
    sigma = plane_strain_stress(op, grad)
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
        if family.kind == kn.ELASTO_TRAC:
            continue  # traction columns derive from the same Kelvin field
        if family.kind == kn.ELASTO_DISP:
            entries.append((ident, lambda n, s, f=family: _elastic_check(f, n, s), 1e-4))
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
    Each entry is logged, a pass at INFO and a failure at WARNING.  n_points
    < 1 or seed < 0 raises ConfigurationError."""
    for name, value, low in (("n_points", n_points, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ConfigurationError(f"{name} must be an int >= {low}, got {value!r}")
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
# JSON problem configs

_NEEDED = inspect.Parameter.empty  # the default of a field a config must give
_NOUNS = {int: "an int64", float: "a finite number", str: "a string", tuple: "a list of numbers",
          list: "a list of strings", dict: "an object"}
_NODE_FILE = {"node_file": (str, _NEEDED)}
# the document's own fields, (JSON type, default): a built-in config takes
# the first four, a custom one all from seed on; TrainConfig checks seed
_DOCUMENT = {"builtin": (str, _NEEDED), "params": (dict, {}), "seed": (object, 0),
             "train": (dict, {}), "name": (str, "custom"), "kernels": (list, _NEEDED),
             "operator": (dict, None), "geometry": (dict, _NEEDED),
             "sources": (dict, _NEEDED), "test": (dict, _NEEDED), "rerr_floor": (float, 0.0)}


def _signature(fn, skip=()):
    """{name: (JSON type: the annotation, else the default's type, default)}."""
    return {p.name: (type(p.default) if p.annotation is p.empty else p.annotation, p.default)
            for p in inspect.signature(fn).parameters.values() if p.name not in skip}


def _is(value, kind):
    """Whether value has the JSON type kind; a bool is no number, an int one
    that int64 holds and a float one that a float holds."""
    if kind in (tuple, list):
        return isinstance(value, list) and all(_is(v, float if kind is tuple else str)
                                               for v in value)
    if kind in (int, float):
        number, limit = (numbers.Integral, np.iinfo(np.int64).max) if kind is int \
            else (numbers.Real, sys.float_info.max)
        return isinstance(value, number) and not isinstance(value, bool) and abs(value) <= limit
    return isinstance(value, kind)


def _check(path, owner, section, fields):
    """Raise ConfigurationError naming path + key for a key that fields does
    not list, a missing _NEEDED field, or a value of the wrong JSON type."""
    for key in sorted(section.keys() - fields.keys()):
        raise ConfigurationError(f"unknown field {path}{key}; valid: {sorted(fields)}")
    for key, (kind, default) in fields.items():
        if key not in section and default is _NEEDED:
            raise ConfigurationError(f"{path}{key}: {owner} needs {key}")
        if key in section and not (section[key] is None and default is None
                                   or _is(section[key], kind)):
            raise ConfigurationError(f"{path}{key}: {owner} needs {key} as {_NOUNS[kind]}"
                                     f"{' or null' * (default is None)}, got {section[key]!r}")


def check_config(doc):
    """Raise ConfigurationError naming section.field for an unknown key, a
    missing field or a value of the wrong JSON type.  The types are read
    from the code each section feeds: the built-in's keyword defaults,
    OperatorSpec's and gen_sources' annotations; TrainConfig checks train."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a config is a JSON object, got {doc!r}")
    builtin = doc.get("builtin")
    kind = "a built-in config" if "builtin" in doc else "a custom config"
    takes = list(_DOCUMENT)[:4] if "builtin" in doc else list(_DOCUMENT)[2:]
    for key in sorted(doc.keys() - takes):
        raise ConfigurationError(f"{key}: {kind} takes no {key}" if key in _DOCUMENT
                                 else f"unknown field {key}; valid: {sorted(_DOCUMENT)}")
    _check("", kind, doc, {key: _DOCUMENT[key] for key in takes})
    if "builtin" in doc and builtin not in BUILTINS:
        raise ConfigurationError(f"builtin: unknown {builtin!r}; valid: {sorted(BUILTINS)}")
    sources = doc.get("sources", {})
    placement = sources.get("placement")
    for key, owner, fields in [
            ("train", "TrainConfig", dict.fromkeys(TrainConfig.__dataclass_fields__,
                                                   (object, None))),
            ("params", builtin, builtin and _signature(BUILTINS[builtin], skip=("seed", "train"))),
            ("operator", "the operator", _signature(OperatorSpec)),
            ("geometry", "geometry", _NODE_FILE),
            ("sources", f"{placement} placement" if isinstance(placement, str) else "sources",
             _NODE_FILE if "node_file" in sources else _signature(gen_sources, skip=("base",))),
            ("test", "test", _NODE_FILE)]:
        if doc.get(key) is not None:
            _check(f"{key}.", owner, doc[key], fields)
    if not 0 <= doc.get("rerr_floor", 0.0) < 1:
        raise ConfigurationError(f"rerr_floor must be in [0, 1), got {doc['rerr_floor']!r}")
    TrainConfig(seed=doc.get("seed", 0))
    try:
        TrainConfig(**doc.get("train", {}))
    except ConfigurationError as exc:  # its messages begin with the field
        raise ConfigurationError(f"train.{exc}") from None


def load_problem_config(path):
    """The checked config document at path, its node files taken from its directory."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an int of more than 4300 digits
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    check_config(doc)
    for part in (doc.get(section, {}) for section in ("geometry", "sources", "test")):
        if "node_file" in part:
            part["node_file"] = os.path.join(os.path.dirname(path), part["node_file"])
    return doc


def setup_from_config(doc):
    """ProblemSetup of a config document, built-in or custom, once checked."""
    check_config(doc)
    seed, train = doc.get("seed", 0), doc.get("train", {})
    if "builtin" in doc:
        return BUILTINS[doc["builtin"]](seed=seed, train=train, **doc.get("params", {}))
    if not doc["kernels"]:
        raise ConfigurationError("kernels: a custom config needs at least one kernel")
    families = [parse_kernel_id(ident) for ident in doc["kernels"]]
    op = families[0].operator if doc.get("operator") is None else OperatorSpec(**doc["operator"])
    for ident, fam in zip(doc["kernels"], families):
        if fam.operator.dim != op.dim:
            raise ConfigurationError(f"kernel {ident} dim != operator dim {op.dim}")
    colloc = load_nodes(doc["geometry"]["node_file"])
    spec = doc["sources"]
    if "node_file" in spec:
        nodes = load_nodes(spec["node_file"])
        sources = SourceSet(nodes.points, times=nodes.times)
    else:
        base = colloc if spec["placement"] == "same_nodes_with_delay" else colloc.points
        sources = gen_sources(base, **spec)
    test_set = load_nodes(doc["test"]["node_file"])
    for section, nodes in (("geometry", colloc), ("sources", sources), ("test", test_set)):
        if nodes.dim != op.dim:
            raise ConfigurationError(f"{section}: {nodes.dim}-dimensional points for a "
                                     f"{op.dim}D operator")
    return ProblemSetup(
        name=doc.get("name", "custom"), operator=op, families=families, colloc=colloc,
        sources=sources, train=TrainConfig(**{"seed": seed, **train}),
        test_points=test_set.points, test_values=test_set.values,
        test_times=test_set.times, rerr_floor=doc.get("rerr_floor", 0.0),
        notes={"config": "custom"})
