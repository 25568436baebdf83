"""Collocation and source node generation, node-file I/O, space-time grids.

Generators are deterministic given their arguments, a seed among them only
where one draws.  Collocation/source sets are treated as immutable once
built and are safe to share across threads.  Row kinds use the node-file
letters: D(irichlet), N(eumann), I(nitial), R = interior residual (enhanced
mode only).
"""

import math
import numbers

import numpy as np

from .errors import DomainError, NodeFileError

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

DIRICHLET = "D"
NEUMANN = "N"
INITIAL = "I"
INTERIOR_RESIDUAL = "R"
KINDS = (DIRICHLET, NEUMANN, INITIAL, INTERIOR_RESIDUAL)


class CollocationSet:
    """Training rows: points, per-row kind, prescribed values.

    normals has nan rows where absent; times is None for steady problems.
    components tags the row operator where one point carries several rows:
    displacement component (1|2) on elasticity rows, and 0 = value /
    1 = time-derivative on initial rows (the I = [1, d/dt] operator of
    second-order-in-time problems).
    """

    def __init__(self, points, kinds, values, normals=None, times=None, components=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.points.shape[0]
        self.kinds = np.asarray(kinds, dtype="U1")
        self.values = np.asarray(values, dtype=float)
        if self.kinds.shape != (n,) or self.values.shape != (n,):
            raise DomainError("kinds/values must match the point count")
        bad = sorted(set(self.kinds.tolist()) - set(KINDS))
        if bad:
            raise DomainError(f"unknown row kinds {bad}; valid: {KINDS}")
        if normals is None:
            normals = np.full_like(self.points, np.nan)
        self.normals = np.asarray(normals, dtype=float)
        if self.normals.shape != self.points.shape:
            raise DomainError("normals must match points shape")
        self.times = None if times is None else np.asarray(times, dtype=float)
        if self.times is not None and self.times.shape != (n,):
            raise DomainError("times must match the point count")
        self.components = np.zeros(n, dtype=int) if components is None \
            else np.asarray(components, dtype=int)
        rows = np.flatnonzero(self.kinds == NEUMANN)
        nm = self.normals[rows]
        length = np.sqrt((nm * nm).sum(axis=1))
        unit = np.isfinite(nm).all(axis=1) & (np.abs(length - 1.0) <= 1e-10)
        if not unit.all():
            raise DomainError(f"Neumann row {rows[np.argmin(unit)]} needs a unit normal")

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def count(self, kind):
        return int(np.sum(self.kinds == kind))


class SourceSet:
    """Hidden-neuron centers; optionally with per-source times tau."""

    def __init__(self, points, times=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.times = None if times is None else np.asarray(times, dtype=float)
        if self.times is not None and self.times.shape != (self.points.shape[0],):
            raise DomainError("source times must match the point count")

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


# Entries per row block: assembly and the separation guard work on row blocks
# of at most this many (row, column) entries, so their temporaries stay
# cache-sized whatever the row count.  Of 2^13 ... 2^18 and whole blocks,
# 2^16 was fastest (2-core x86 VM, one BLAS thread) for forward on 5 000
# points with example2's model (400 columns, 163 rows per block) and
# example5's (1 280 columns per family, 51 rows), and for example5's assembly.
_BLOCK_ENTRIES = 1 << 16


def row_blocks(rows, width):
    """Consecutive pieces of the index array rows, each with at most
    _BLOCK_ENTRIES entries across width columns (at least one row)."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def validate_source_separation(sources, colloc, min_rel=1e-10):
    """Reject source/collocation coincidence.

    For space-time sets the delayed source times already prevent kernel
    singularities, so only purely spatial sets are checked.  The minimum
    distance is taken over row blocks (row_blocks), never over the whole
    (n, m) distance matrix.
    """
    if sources.times is not None:
        return
    P = colloc.points
    scale = max(1.0, float(np.max(np.abs(P))) if len(colloc) else 1.0)
    d2 = min((float(np.min(pairwise_sq_dist(P[rows], sources.points)))
              for rows in row_blocks(np.arange(len(P)), len(sources))), default=math.inf)
    if math.sqrt(d2) <= min_rel * scale:
        raise DomainError("source points coincide with collocation points "
                          "(coincident centers need a shifted kernel family)")


def pairwise_sq_dist(X, S):
    """|x_i - s_j|^2 for X (n, dim) and S (m, dim), as an (n, m) array.

    Squared coordinate differences are added one coordinate at a time, in
    index order, so no (n, m, dim) difference tensor is built and every entry
    is the same sum whatever rows or columns the block holds.  This is the
    one rule for pair geometry: coordinate_dot(d, d) of the
    pairwise_differences d gives the same bits.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    d2 = np.subtract.outer(X[:, 0], S[:, 0])
    np.square(d2, out=d2)
    diff = np.empty_like(d2)
    for i in range(1, X.shape[1]):
        np.subtract.outer(X[:, i], S[:, i], out=diff)
        d2 += np.square(diff, out=diff)
    return d2


def pairwise_differences(X, S):
    """The coordinate differences x_i - s_i of X (n, dim) and S (m, dim): a
    list of dim (n, m) arrays, for formulas that need the components."""
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    return [np.subtract.outer(X[:, i], S[:, i]) for i in range(X.shape[1])]


def coordinate_dot(a, b):
    """sum_i a[i] * b[i] over per-coordinate terms (arrays or numbers that
    broadcast), added in index order as pairwise_sq_dist adds."""
    total = a[0] * b[0]
    for a_i, b_i in zip(a[1:], b[1:]):
        total = total + a_i * b_i
    return total


# ---------------------------------------------------------------------------
# boundary generators

def gen_boundary(shape, n, **params):
    """(points, normals): n nodes uniformly distributed on a named boundary
    and their unit outward normals, both (n, dim) arrays.

    Shapes: square(a, b), circle(r, center), lshape(scale), sphere(r),
    torus(r_major, r_minor), hypersphere4(r, seed), the one that draws.
    """
    if n < 2:
        raise DomainError("need at least 2 boundary nodes")
    gens = {"square": _square, "circle": _circle, "lshape": _lshape,
            "sphere": _sphere, "torus": _torus, "hypersphere4": _hypersphere4}
    if shape not in gens:
        raise DomainError(f"unsupported shape {shape!r}; valid: {sorted(gens)}")
    return gens[shape](n, **params)


def _square(n, a=-1.0, b=1.0):
    # midpoint-offset nodes per edge, corner-exclusive: bottom (x2 = a),
    # right (x1 = b), top (x2 = b), left (x1 = a)
    if not b > a:
        raise DomainError("square needs b > a")
    points, normals = [], []
    for edge, normal in enumerate(((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))):
        m = n // 4 + (1 if edge < n % 4 else 0)
        along = a + (np.arange(m) + 0.5) * (b - a) / m
        fixed = np.full(m, b if edge in (1, 2) else a)
        points.append(np.column_stack((along, fixed) if edge % 2 == 0 else (fixed, along)))
        normals.append(np.tile(normal, (m, 1)))
    return np.vstack(points), np.vstack(normals)


def _circle(n, r=1.0, center=(0.0, 0.0)):
    if r <= 0:
        raise DomainError("circle needs r > 0")
    th = 2.0 * math.pi * np.arange(n) / n
    normals = np.column_stack((np.cos(th), np.sin(th)))
    return np.asarray(center, dtype=float) + r * normals, normals


_LSHAPE_PATH = [((-1, -1), (1, -1), (0.0, -1.0)),
                ((1, -1), (1, 0), (1.0, 0.0)),
                ((1, 0), (0, 0), (0.0, 1.0)),
                ((0, 0), (0, 1), (1.0, 0.0)),
                ((0, 1), (-1, 1), (0.0, 1.0)),
                ((-1, 1), (-1, -1), (-1.0, 0.0))]


def _lshape(n, scale=1.0):
    # [-1,1]^2 minus [0,1]^2, scaled; arc-length uniform over the six edges.
    # Each node's arc length s loses the length of every edge it passes, and
    # the last edge takes the nodes that rounding carries past the others.
    if scale <= 0:
        raise DomainError("lshape needs scale > 0")
    lengths = [math.dist(p, q) for p, q, _ in _LSHAPE_PATH]
    s = (np.arange(n) + 0.5) * sum(lengths) / n
    points, normals = np.empty((n, 2)), np.empty((n, 2))
    pending = np.ones(n, dtype=bool)
    for edge, ((p, q, normal), L) in enumerate(zip(_LSHAPE_PATH, lengths)):
        here = pending & (s <= L) if edge < len(_LSHAPE_PATH) - 1 else pending
        f = np.minimum(s[here] / L, 1.0)[:, None]
        points[here] = (np.asarray(p) + f * np.subtract(q, p)) * scale
        normals[here] = normal
        pending &= ~here
        s[pending] -= L
    return points, normals


def _sphere(n, r=1.0, center=(0.0, 0.0, 0.0)):
    # Fibonacci spiral with polar endpoints (n = 2 degenerates to the poles)
    if r <= 0:
        raise DomainError("sphere needs r > 0")
    i = np.arange(n)
    z = np.clip(1.0 - 2.0 * i / (n - 1), -1.0, 1.0) if n > 1 else np.ones(n)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = i * GOLDEN_ANGLE
    d = np.column_stack((rho * np.cos(th), rho * np.sin(th), z))
    return np.asarray(center, dtype=float) + r * d, d


def _torus(n, r_major=2.0, r_minor=0.5, center=(0.0, 0.0, 0.0)):
    # golden-ratio lattice in (u, w); w inverted through the area CDF in v
    if not (r_major > r_minor > 0):
        raise DomainError("torus needs r_major > r_minor > 0")
    i = np.arange(n)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    u = 2.0 * math.pi * ((i * phi) % 1.0)
    v = _torus_v_from_cdf((i + 0.5) / n, r_major, r_minor)
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    ring = r_major + r_minor * cv
    points = np.column_stack((ring * cu, ring * su, r_minor * sv))
    return points + np.asarray(center, dtype=float), np.column_stack((cv * cu, cv * su, sv))


def _torus_v_from_cdf(w, R, r):
    # solve (R v + r sin v) / (2 pi R) = w on [0, 2 pi) by Newton, each node
    # stopping after its first step below 1e-14 (at most 50 steps)
    v = 2.0 * math.pi * w
    active = np.arange(len(w))
    for _ in range(50):
        va = v[active]
        f = (R * va + r * np.sin(va)) / (2.0 * math.pi * R) - w[active]
        fp = (R + r * np.cos(va)) / (2.0 * math.pi * R)
        step = f / fp
        v[active] = va - step
        active = active[~(np.abs(step) < 1e-14)]
        if not active.size:
            break
    return v


def _hypersphere4(n, r=1.0, seed=0):
    # seeded rejection sampling in [-1,1]^4, normalized onto the 3-sphere
    if r <= 0:
        raise DomainError("hypersphere4 needs r > 0")
    rng = np.random.default_rng(seed)

    def norm(c):
        # one BLAS dot per row, (1, 4) @ (4, 1), as np.linalg.norm(row) sums;
        # an axis-wise norm or einsum rounds some rows differently
        return np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0])

    def inside(c):
        length = norm(c)
        return (1e-3 < length) & (length <= 1.0)

    cand = _rejection_sample(lambda k: rng.uniform(-1.0, 1.0, size=(k, 4)), inside, n)
    d = cand / norm(cand)[:, None]
    return r * d, d


def _rejection_sample(draw, accept, n):
    """The first n rows of successive draw(k) batches that accept(rows)
    keeps.  A batch of k rows holds the numbers k single-row draws give, so
    the rows do not depend on the batch size."""
    rows = draw(0)
    while len(rows) < n:
        cand = draw(4 * n)
        rows = np.concatenate([rows, cand[accept(cand)]])
    return rows[:n]


# ---------------------------------------------------------------------------
# source placement

def gen_sources(base, placement: str, n: int = None, r: float = 1.0, center: tuple = None,
                factor: float = None, dt: float = None):
    """SourceSet on a fictitious boundary: scaled_circle or scaled_sphere (n
    nodes of radius r about center), inflated (the (n, dim) points base
    scaled by factor about center) or same_nodes_with_delay (the nodes of
    the space-time CollocationSet base, dt in the past).  The annotations
    are the JSON types of a config's sources section."""
    if placement in ("scaled_circle", "scaled_sphere"):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"{placement} placement needs n, an int >= 1, got {n!r}")
        shape, dim = (_circle, 2) if placement == "scaled_circle" else (_sphere, 3)
        _check_center(placement, center, dim)
        return SourceSet(shape(n, r, **({} if center is None else {"center": center}))[0])
    if placement == "inflated":
        if not factor or factor <= 0:
            raise DomainError("inflated placement needs factor > 0")
        pts = np.asarray(base, dtype=float)
        _check_center(placement, center, pts.shape[-1])
        center = np.zeros(pts.shape[-1]) if center is None else np.asarray(center, dtype=float)
        return SourceSet(center + factor * (pts - center))
    if placement == "same_nodes_with_delay":
        if not dt or dt <= 0:
            raise DomainError("same_nodes_with_delay needs dt > 0")
        if not isinstance(base, CollocationSet) or base.times is None:
            raise DomainError("same_nodes_with_delay needs a space-time CollocationSet")
        # sources sit dt in the past so theta(t - tau) is active on the window
        return SourceSet(base.points.copy(), times=base.times - dt)
    raise DomainError(f"unsupported placement {placement!r}")


def _check_center(placement, center, dim):
    if center is not None and np.shape(center) != (dim,):
        raise DomainError(f"{placement} placement needs center of {dim} numbers, got {center!r}")


# ---------------------------------------------------------------------------
# space-time grids

def gen_spacetime_grid(boundary_points, time_instants, initial_points,
                       bc_value=None, init_value=None):
    """Dirichlet rows at each (x_b, t_j), one instant after the other, then
    initial rows at (x, 0); N = N_Bou + N_Ini.

    Values come from the vectorized callables, bc_value(X, t) once per
    instant and init_value(X) once (default zero).  D and I rows read no
    normal, so the rows carry none.
    """
    instants = [float(t) for t in time_instants]
    if not instants:
        raise DomainError("need at least one time instant")
    if any(t <= 0 for t in instants) or any(b >= a for a, b in zip(instants[1:], instants)):
        raise DomainError("time instants must be strictly increasing and > 0")
    X = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    X0 = np.asarray(initial_points, dtype=float).reshape(-1, X.shape[1])
    values = [np.zeros(len(X)) if bc_value is None else bc_value(X, t) for t in instants]
    values.append(np.zeros(len(X0)) if init_value is None else init_value(X0))
    n_bou = len(X) * len(instants)
    return CollocationSet(np.vstack([np.tile(X, (len(instants), 1)), X0]),
                          np.repeat([DIRICHLET, INITIAL], [n_bou, len(X0)]),
                          np.concatenate(values),
                          times=np.concatenate([np.repeat(instants, len(X)), np.zeros(len(X0))]))


# ---------------------------------------------------------------------------
# node file format
#
# header: `# dim=<d> time=<0|1> normals=<0|1> kind_col=<0|1>`
# row:    coordinates, [time], [normal components], [kind], value  (comma-sep)

def save_nodes(path, colloc):
    """Write a CollocationSet in the text node format (17 significant digits)."""
    has_time = colloc.times is not None
    has_normals = bool(np.any(np.isfinite(colloc.normals)))
    with open(path, "w") as fh:
        fh.write(f"# dim={colloc.dim} time={int(has_time)} "
                 f"normals={int(has_normals)} kind_col=1\n")
        for i in range(len(colloc)):
            cells = [f"{v:.17g}" for v in colloc.points[i]]
            if has_time:
                cells.append(f"{colloc.times[i]:.17g}")
            if has_normals:
                nm = colloc.normals[i]
                cells.extend("" if not np.isfinite(v) else f"{v:.17g}" for v in nm)
            cells.append(colloc.kinds[i])
            cells.append(f"{colloc.values[i]:.17g}")
            fh.write(",".join(cells) + "\n")


def load_nodes(path):
    """Parse a node file into a CollocationSet; errors carry line numbers."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("#"):
        raise NodeFileError("missing header line `# dim=... time=... normals=... kind_col=...`",
                            line=1)
    header = {}
    for token in lines[0][1:].split():
        key, _, value = token.partition("=")
        header[key] = value
    try:
        dim = int(header["dim"])
        has_time = bool(int(header.get("time", "0")))
        has_normals = bool(int(header.get("normals", "0")))
        has_kind = bool(int(header.get("kind_col", "0")))
    except (KeyError, ValueError) as exc:
        raise NodeFileError(f"bad header: {exc}", line=1) from exc

    expected = dim + (1 if has_time else 0) + (dim if has_normals else 0) \
        + (1 if has_kind else 0) + 1
    pts, kinds, values, times, normals = [], [], [], [], []
    for ln, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        cells = raw.split(",")
        if len(cells) != expected:
            raise NodeFileError(f"expected {expected} cells, got {len(cells)}", line=ln)
        try:
            pos = [float(c) for c in cells[:dim]]
            idx = dim
            t = None
            if has_time:
                t = float(cells[idx])
                idx += 1
            nm = (math.nan,) * dim
            given = False   # a normal of empty cells is absent
            if has_normals:
                raw_nm = cells[idx:idx + dim]
                idx += dim
                given = any(c.strip() for c in raw_nm)
                if given:
                    nm = tuple(float(c) for c in raw_nm)
            kind = DIRICHLET
            if has_kind:
                kind = cells[idx].strip()
                idx += 1
            val = float(cells[idx])
        except ValueError as exc:
            raise NodeFileError(f"cannot parse row: {exc}", line=ln) from exc
        if not all(map(math.isfinite, pos + [val] + ([t] if has_time else []))):
            raise NodeFileError("coordinates, time and value must be finite", line=ln)
        if kind not in KINDS:
            raise NodeFileError(f"unknown kind {kind!r}", line=ln)
        if kind == NEUMANN and not given:
            raise NodeFileError("Neumann row lacks a normal", line=ln)
        if given:
            if not all(map(math.isfinite, nm)):
                raise NodeFileError("normal must be finite", line=ln)
            length = math.sqrt(sum(v * v for v in nm))
            if abs(length - 1.0) > 1e-10:
                raise NodeFileError(f"normal has length {length:.3g}, expected 1", line=ln)
        pts.append(pos)
        kinds.append(kind)
        values.append(val)
        times.append(t if t is not None else 0.0)
        normals.append(nm)
    return CollocationSet(pts, kinds, values, normals=normals,
                          times=times if has_time else None)


# ---------------------------------------------------------------------------
# interior samplers (test grids, initial nodes)

def interior_grid_square(a, b, m):
    """~m^2 points strictly inside [a, b]^2."""
    xs = np.linspace(a, b, m + 2)[1:-1]
    X1, X2 = np.meshgrid(xs, xs)
    return np.column_stack([X1.ravel(), X2.ravel()])


def interior_grid_lshape(scale, m):
    pts = interior_grid_square(-scale, scale, m)
    keep = ~((pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0))
    return pts[keep]


def interior_disk(r, m, center=(0.0, 0.0)):
    pts = interior_grid_square(-r, r, m)
    keep = np.einsum("ni,ni->n", pts, pts) < (0.97 * r) ** 2
    return pts[keep] + np.asarray(center)


def interior_ball(r, m, center=(0.0, 0.0, 0.0)):
    xs = np.linspace(-r, r, m + 2)[1:-1]
    X1, X2, X3 = np.meshgrid(xs, xs, xs)
    pts = np.column_stack([X1.ravel(), X2.ravel(), X3.ravel()])
    keep = np.einsum("ni,ni->n", pts, pts) < (0.97 * r) ** 2
    return pts[keep] + np.asarray(center)


def interior_torus(r_major, r_minor, n, seed=0, center=(0.0, 0.0, 0.0)):
    """Seeded uniform rejection sampling in the solid torus."""
    rng = np.random.default_rng(seed)
    R, r = r_major, r_minor

    def inside(c):
        return (np.hypot(c[:, 0], c[:, 1]) - R) ** 2 + c[:, 2] ** 2 < r * r

    low, high = [-(R + r), -(R + r), -r], [R + r, R + r, r]
    cand = _rejection_sample(lambda k: rng.uniform(low, high, size=(k, 3)), inside, n)
    return cand + np.asarray(center)
