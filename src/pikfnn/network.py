"""Two-layer kernel-function network: design matrix assembly, forward
evaluation, residuals, and model serialization.

The hidden layer is the ordered list of kernel families; the output layer is
the trained linear weight vector.  Column ordering is family-major, then
source index (then force component for elasticity, member index for
T-complete families), so weight vectors are portable across runs.

Assembly and forward evaluation are pure given their inputs.  Assembly
evaluates each row group over row blocks (geometry.row_blocks), so no kernel
temporary spans all rows; rows/points may be partitioned freely, because
every entry is computed independently, in an order that does not depend on
the block it falls in.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import kernels as kn
from .errors import ConditioningError, ConfigurationError, SingularityError
from .geometry import CollocationSet, SourceSet
from .kernels import (
    elastic_block,
    elastic_gradient_block,
    elastic_traction_block,
    governing_applied_block,
    kernel_block,
    kernel_gradient_block,
    kernel_time_derivative_block,
    plane_strain_stress,
    tcomplete_member_block,
    tcomplete_member_gradient_block,
    tcomplete_members,
)
from .registry import format_kernel_id, parse_kernel_id


def family_width(family, sources):
    """Number of hidden neurons a family contributes."""
    if family.kind == kn.T_COMPLETE:
        return len(tcomplete_members(family))
    if family.kind in (kn.ELASTO_DISP, kn.ELASTO_TRAC):
        return 2 * len(sources)
    if family.complex_split:
        return 2 * len(sources)  # separate real- and imaginary-part columns
    return len(sources)


@dataclass
class DesignMatrix:
    """Dense training matrix plus per-row kind tags."""

    entries: np.ndarray
    row_kinds: np.ndarray

    @property
    def shape(self):
        return self.entries.shape


@dataclass
class PikfnnModel:
    """Kernel families + sources + linear output weights."""

    families: list
    sources: SourceSet
    dim: int
    weights: np.ndarray = None

    def __post_init__(self):
        if not self.families:
            raise ConfigurationError("model needs at least one kernel family")
        for fam in self.families:
            if fam.operator.dim != self.dim:
                raise ConfigurationError(
                    f"family {format_kernel_id(fam)} has dim {fam.operator.dim}, "
                    f"model has {self.dim}")
        if self.sources.dim != self.dim:
            raise ConfigurationError(f"sources have dim {self.sources.dim}, model has {self.dim}")

    @property
    def width(self):
        return sum(family_width(f, self.sources) for f in self.families)

    def require_weights(self):
        if self.weights is None:
            raise ConfigurationError("model has no trained weights")
        if len(self.weights) != self.width:
            raise ConfigurationError(
                f"weight length {len(self.weights)} != neuron count {self.width}")


def assemble(families, sources, colloc, governing=None):
    """Design matrix: rows = collocation rows, columns = hidden neurons.

    Dirichlet rows take kernel values, Neumann rows normal-dot-gradients,
    Initial rows kernel values at the row time (component 0) or their time
    derivative (component 1), interior-residual rows the governing operator
    applied to the kernel (defaults to the first family's operator, the
    phi^{L0} convention).
    """
    if not families:
        raise ConfigurationError("need at least one kernel family")
    if not isinstance(colloc, CollocationSet) or len(colloc) == 0:
        raise ConfigurationError("need a non-empty collocation set")
    for fam in families:
        if fam.operator.dim != colloc.dim:
            raise ConfigurationError(
                f"kernel dim {fam.operator.dim} != collocation dim {colloc.dim}")
    if sources.dim != colloc.dim:
        raise ConfigurationError(f"source dim {sources.dim} != collocation dim {colloc.dim}")
    if any(f.is_singular for f in families):
        geo.validate_source_separation(sources, colloc)
    if governing is None:
        governing = families[0].operator

    n = len(colloc)
    widths = [family_width(f, sources) for f in families]
    entries = np.zeros((n, sum(widths)))
    offsets = np.cumsum([0] + widths)
    for fam, start, stop in zip(families, offsets[:-1], offsets[1:]):
        _fill_family_block(entries[:, start:stop], fam, sources, colloc, governing)

    finite = np.isfinite(entries)
    if not finite.all():  # the first bad entry in row order is named
        row, column = np.argwhere(~finite)[0]
        raise SingularityError(f"non-finite design-matrix entry at row {row}, column {column}")
    return DesignMatrix(entries=entries, row_kinds=colloc.kinds.copy())


_INITIAL_RATE = "dt"  # the row group of initial rows tagged component 1


def _fill_family_block(block, family, sources, colloc, governing):
    # each row group is evaluated over row blocks (geometry.row_blocks), and
    # each block is written in place, so no kernel temporary spans all rows
    groups = _row_groups(family, colloc)
    if family.kind in (kn.ELASTO_DISP, kn.ELASTO_TRAC):
        rows_block = _elastic_rows
    elif family.kind == kn.T_COMPLETE:
        rows_block = _tcomplete_rows
    else:
        rows_block = _kernel_rows
    m = len(sources)
    for group in sorted(set(groups.tolist())):
        for rows in geo.row_blocks(np.flatnonzero(groups == group), block.shape[1]):
            vals = rows_block(family, group, rows, sources, colloc, governing)
            # where assembly turns a complex block real: split families keep
            # both parts as separate columns, the others their real part
            if family.complex_split:
                block[rows, :m] = vals.real
                block[rows, m:] = vals.imag
            else:
                block[rows] = np.real(vals)


def _row_groups(family, colloc):
    """Each row's group: its kind, or _INITIAL_RATE for initial rows tagged
    component 1 (the initial operator I = [1, d/dt]: component 0 rows take
    kernel values, component 1 rows, for second-order-in-time problems, its
    time derivative).  Raises ConfigurationError on rows the family cannot
    take."""
    if family.kind in (kn.ELASTO_DISP, kn.ELASTO_TRAC):
        if not np.all(np.isin(colloc.kinds, (geo.DIRICHLET, geo.NEUMANN))):
            raise ConfigurationError(
                "elastic rows must be Dirichlet (displacement) or Neumann (traction)")
        if not np.all(np.isin(colloc.components, (1, 2))):
            raise ConfigurationError(
                "elastic rows need component tag 1 or 2 (the displacement or "
                "traction component they constrain)")
        return colloc.kinds
    initial = colloc.kinds == geo.INITIAL
    if not np.all(np.isin(colloc.components[initial], (0, 1))):
        raise ConfigurationError(
            "initial rows need component tag 0 (value) or 1 (time derivative)")
    if family.kind == kn.T_COMPLETE and \
            not np.all(np.isin(colloc.kinds, (geo.DIRICHLET, geo.INITIAL, geo.NEUMANN))):
        raise ConfigurationError(
            "T-complete families support Dirichlet/Neumann/Initial rows only")
    return np.where(initial & (colloc.components == 1), _INITIAL_RATE, colloc.kinds)


def _kernel_rows(family, group, rows, sources, colloc, governing):
    P = colloc.points[rows]
    T = colloc.times[rows] if colloc.times is not None else None
    S, TAU = sources.points, sources.times
    if group in (geo.DIRICHLET, geo.INITIAL):
        return kernel_block(family, P, S, T, TAU)
    if group == _INITIAL_RATE:
        return kernel_time_derivative_block(family, P, S, T, TAU)
    if group == geo.NEUMANN:
        return kernel_gradient_block(family, P, S, colloc.normals[rows], T, TAU)
    return governing_applied_block(family, governing, P, S, T, TAU)


def _tcomplete_rows(family, group, rows, sources, colloc, governing):
    # value rows take member values, Neumann rows their closed-form gradients
    # dotted with the normal; the members do not depend on t, so initial rows
    # tagged component 1 stay zero
    members = tcomplete_members(family)
    P = colloc.points[rows]
    if group == _INITIAL_RATE:
        return np.zeros((len(rows), len(members)))
    if group != geo.NEUMANN:
        return np.column_stack([tcomplete_member_block(family, index, P)
                                for index in members])
    normals = colloc.normals[rows]
    out = np.empty((len(rows), len(members)))
    for j, index in enumerate(members):
        grad = tcomplete_member_gradient_block(family, index, P)
        out[:, j] = geo.coordinate_dot(grad.T, normals.T)
    return out


def _elastic_rows(family, group, rows, sources, colloc, governing):
    # columns: (source j, force component k); each row takes its own
    # displacement or traction component l from its component tag
    P, S = colloc.points[rows], sources.points
    kelvin = (elastic_block(family.operator, P, S) if group == geo.DIRICHLET
              else elastic_traction_block(family.operator, P, S, colloc.normals[rows]))
    picked = kelvin[np.arange(len(rows)), :, colloc.components[rows] - 1, :]
    return picked.reshape(len(rows), -1)


def forward(model, points, times=None):
    """u(x) = sum_j p_j phi_j(x, s_j) at each evaluation point."""
    model.require_weights()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    kinds = [geo.DIRICHLET] * points.shape[0]
    colloc = CollocationSet(points, kinds, np.zeros(points.shape[0]),
                            times=times)
    matrix = assemble(model.families, model.sources, colloc)
    return matrix.entries @ model.weights


def residual(model, matrix, targets):
    """Per-row residual vector: matrix @ weights - targets."""
    model.require_weights()
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (matrix.entries.shape[0],):
        raise ConfigurationError(
            f"target length {targets.shape} != row count {matrix.entries.shape[0]}")
    return matrix.entries @ model.weights - targets


# ---------------------------------------------------------------------------
# elasticity post-processing

def forward_displacement(model, points):
    """Displacement components (n, 2) for an elastic point-force model."""
    model.require_weights()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    # rows (u_1, u_2) at each point
    colloc = CollocationSet(np.repeat(points, 2, axis=0), [geo.DIRICHLET] * (2 * n),
                            np.zeros(2 * n), components=np.tile([1, 2], n))
    matrix = assemble(model.families, model.sources, colloc)
    return (matrix.entries @ model.weights).reshape(n, 2)


def forward_stress(model, points):
    """Plane-strain stresses (sigma_11, sigma_22, sigma_12) at each point."""
    model.require_weights()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    op = model.families[0].operator
    sources = model.sources.points
    # grad[n, l, j] = d u_l / d x_j
    grad = np.einsum("nmlkj,mk->nlj", elastic_gradient_block(op, points, sources),
                     model.weights.reshape(len(sources), 2))
    return plane_strain_stress(op, grad)[:, [0, 1, 0], [0, 1, 1]]


def fit_particular_weights(chain_families, sources, points, f_values,
                           governing, times=None):
    """Least-squares weights q with (L0 sum_j q_j phi^{chain})(x_i) = f(x_i).

    B is numerically rank-deficient (cond ~1e17 on example5), so q minimizes
    |B q - f|^2 + a^2 |D q|^2: D the column norms of B (1 if zero), a =
    max(m, n, 16) eps (lstsq's default cut-off on unit columns; at least
    16 eps, so that on small blocks too it dominates the QR's rounding in an
    exactly dependent direction, about sqrt(m) eps), solved by one
    Householder QR of [[B D^-1, f], [a I, 0]] (Bjorck 1996).  B is written
    into that matrix over row blocks (_prefit_matrix) and scaled there.  Not
    the normal equations: B^T B loses the singular values below
    sqrt(eps) sigma_max, and the example5 smoke problem then misses its gate.
    Returns (q, fit rms, amplification max_j |q_j| D_j / |f|); an
    amplification >> 1 means the fit cancels huge column terms (dependent
    columns with f outside the range of B), which the fit rms does not show.
    Raises ConditioningError naming the first non-finite row of B or f.
    """
    M = _prefit_matrix(chain_families, sources, points, f_values, governing, times)
    n = M.shape[1] - 1
    m = M.shape[0] - n
    bad = np.flatnonzero(~np.isfinite(M[:m]).all(axis=1))
    if bad.size:
        raise ConditioningError(f"pre-fit row {bad[0]} has a non-finite entry or source value")
    B, f = M[:m, :n], M[:m, n]
    D = np.sqrt(np.einsum("ij,ij->j", B, B))
    D[D == 0.0] = 1.0
    B /= D
    np.fill_diagonal(M[m:], max(m, n, 16) * np.finfo(float).eps)
    R = np.linalg.qr(M, mode="r")
    y = _solve_upper(R[:n, :n], R[:n, n])
    q = y / D
    amplification = np.max(np.abs(q) * D) / max(np.linalg.norm(f), np.finfo(float).tiny)
    return q, float(np.sqrt(np.mean((B @ y - f) ** 2))), float(amplification)


def _prefit_matrix(chain_families, sources, points, f_values, governing, times):
    """The stacked pre-fit matrix [[B, f], [0, 0]], (m + n) x (n + 1): B the
    chain families' governing-operator columns, filled as assembly fills
    interior-residual rows (row block by row block, real parts), f the
    source values; the lower n rows are left for the Tikhonov term."""
    rows = CollocationSet(points, [geo.INTERIOR_RESIDUAL] * len(f_values), f_values,
                          times=times)
    widths = [family_width(f, sources) for f in chain_families]
    m, n = len(rows), sum(widths)
    M = np.zeros((m + n, n + 1))
    start = 0
    for fam, width in zip(chain_families, widths):
        _fill_family_block(M[:m, start:start + width], fam, sources, rows, governing)
        start += width
    M[:m, n] = f_values
    return M


def _solve_upper(R, c):
    """y with R y = c for upper-triangular R, by back-substitution (numpy has
    no triangular solver, and an LU of R would redo the QR's work)."""
    y = np.empty(len(c))
    for i in range(len(c) - 1, -1, -1):
        y[i] = (c[i] - R[i, i + 1:] @ y[i + 1:]) / R[i, i]
    return y


# ---------------------------------------------------------------------------
# serialization (text document; floats survive the round trip exactly)

def save_model(path, model):
    model.require_weights()
    doc = {
        "dim": model.dim,
        "kernels": [format_kernel_id(f) for f in model.families],
        "sources": {
            "points": model.sources.points.tolist(),
            "times": None if model.sources.times is None else model.sources.times.tolist(),
        },
        "weights": model.weights.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    families = [parse_kernel_id(ident) for ident in doc["kernels"]]
    src = doc["sources"]
    # files of earlier versions also carry "enhanced" and "delay_dt", which
    # nothing reads
    sources = SourceSet(np.asarray(src["points"], dtype=float),
                        times=None if src["times"] is None else np.asarray(src["times"]))
    return PikfnnModel(families=families, sources=sources, dim=int(doc["dim"]),
                       weights=np.asarray(doc["weights"], dtype=float))
