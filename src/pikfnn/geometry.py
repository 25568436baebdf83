"""Collocation and source node generation, node-file I/O, space-time grids.

Generators are deterministic given (shape, n, seed).  Collocation/source
sets are treated as immutable once built and are safe to share across
threads.  Row kinds use the node-file letters: D(irichlet), N(eumann),
I(nitial), R = interior residual (enhanced mode only).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NodeFileError

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

DIRICHLET = "D"
NEUMANN = "N"
INITIAL = "I"
INTERIOR_RESIDUAL = "R"
KINDS = (DIRICHLET, NEUMANN, INITIAL, INTERIOR_RESIDUAL)


@dataclass(frozen=True)
class Node:
    """One node: coordinates, optional unit outward normal, optional time."""

    x: tuple
    normal: tuple = None
    t: float = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.normal is not None:
            nm = tuple(float(v) for v in self.normal)
            if abs(math.sqrt(sum(v * v for v in nm)) - 1.0) > 1e-12:
                raise DomainError(f"normal must have unit length, got {nm}")
            object.__setattr__(self, "normal", nm)


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

    def __init__(self, points, times=None, enhanced=False, delay_dt=0.0):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.times = None if times is None else np.asarray(times, dtype=float)
        if self.times is not None and self.times.shape != (self.points.shape[0],):
            raise DomainError("source times must match the point count")
        self.enhanced = bool(enhanced)
        self.delay_dt = float(delay_dt)

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
    """Reject source/collocation coincidence unless in enhanced mode.

    For space-time sets the delayed source times already prevent kernel
    singularities, so only purely spatial sets are checked.  The minimum
    distance is taken over row blocks (row_blocks), never over the whole
    (n, m) distance matrix.
    """
    if sources.enhanced or sources.times is not None:
        return
    P = colloc.points
    scale = max(1.0, float(np.max(np.abs(P))) if len(colloc) else 1.0)
    d2 = min((float(np.min(pairwise_sq_dist(P[rows], sources.points)))
              for rows in row_blocks(np.arange(len(P)), len(sources))), default=math.inf)
    if math.sqrt(d2) <= min_rel * scale:
        raise DomainError("source points coincide with collocation points "
                          "(enhanced mode required for coincident centers)")


def pairwise_sq_dist(X, S):
    """|x_i - s_j|^2 for X (n, dim) and S (m, dim), as an (n, m) array.

    Squared coordinate differences are added one coordinate at a time, in
    index order, so no (n, m, dim) difference tensor is built and every entry
    is the same sum whatever rows or columns the block holds.
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


# ---------------------------------------------------------------------------
# boundary generators

def gen_boundary(shape, n, seed=0, **params):
    """Nodes uniformly distributed on a named boundary, with outward normals.

    Shapes: square(a, b), circle(r, center), lshape(scale), sphere(r),
    torus(r_major, r_minor), hypersphere4(r).
    """
    if n < 2:
        raise DomainError("need at least 2 boundary nodes")
    gens = {"square": _square, "circle": _circle, "lshape": _lshape,
            "sphere": _sphere, "torus": _torus, "hypersphere4": _hypersphere4}
    if shape not in gens:
        raise DomainError(f"unsupported shape {shape!r}; valid: {sorted(gens)}")
    return gens[shape](n, seed=seed, **params)


def _square(n, a=-1.0, b=1.0, seed=0):
    # midpoint-offset nodes per edge, corner-exclusive
    if not b > a:
        raise DomainError("square needs b > a")
    per = [n // 4 + (1 if i < n % 4 else 0) for i in range(4)]
    nodes = []
    m = per[0]
    for i in range(m):  # bottom: x2 = a
        nodes.append(Node((a + (i + 0.5) * (b - a) / m, a), (0.0, -1.0)))
    m = per[1]
    for i in range(m):  # right: x1 = b
        nodes.append(Node((b, a + (i + 0.5) * (b - a) / m), (1.0, 0.0)))
    m = per[2]
    for i in range(m):  # top: x2 = b
        nodes.append(Node((a + (i + 0.5) * (b - a) / m, b), (0.0, 1.0)))
    m = per[3]
    for i in range(m):  # left: x1 = a
        nodes.append(Node((a, a + (i + 0.5) * (b - a) / m), (-1.0, 0.0)))
    return nodes


def _circle(n, r=1.0, center=(0.0, 0.0), seed=0):
    if r <= 0:
        raise DomainError("circle needs r > 0")
    cx, cy = center
    nodes = []
    for j in range(n):
        th = 2.0 * math.pi * j / n
        c, s = math.cos(th), math.sin(th)
        nodes.append(Node((cx + r * c, cy + r * s), (c, s)))
    return nodes


_LSHAPE_PATH = [((-1, -1), (1, -1), (0.0, -1.0)),
                ((1, -1), (1, 0), (1.0, 0.0)),
                ((1, 0), (0, 0), (0.0, 1.0)),
                ((0, 0), (0, 1), (1.0, 0.0)),
                ((0, 1), (-1, 1), (0.0, 1.0)),
                ((-1, 1), (-1, -1), (-1.0, 0.0))]


def _lshape(n, scale=1.0, seed=0):
    # [-1,1]^2 minus [0,1]^2, scaled; arc-length uniform over the six edges
    if scale <= 0:
        raise DomainError("lshape needs scale > 0")
    lengths = [math.dist(p, q) for p, q, _ in _LSHAPE_PATH]
    perimeter = sum(lengths)
    nodes = []
    for i in range(n):
        s = (i + 0.5) * perimeter / n
        for (p, q, normal), L in zip(_LSHAPE_PATH, lengths):
            if s <= L or (p, q) == _LSHAPE_PATH[-1][:2]:
                f = min(s / L, 1.0)
                x = (p[0] + f * (q[0] - p[0])) * scale
                y = (p[1] + f * (q[1] - p[1])) * scale
                nodes.append(Node((x, y), normal))
                break
            s -= L
    return nodes


def _sphere(n, r=1.0, center=(0.0, 0.0, 0.0), seed=0):
    # Fibonacci spiral with polar endpoints (n = 2 degenerates to the poles)
    if r <= 0:
        raise DomainError("sphere needs r > 0")
    nodes = []
    for i in range(n):
        z = 1.0 - 2.0 * i / (n - 1) if n > 1 else 1.0
        z = max(-1.0, min(1.0, z))
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        th = i * GOLDEN_ANGLE
        d = (rho * math.cos(th), rho * math.sin(th), z)
        nodes.append(Node(tuple(center[j] + r * d[j] for j in range(3)), d))
    return nodes


def _torus(n, r_major=2.0, r_minor=0.5, center=(0.0, 0.0, 0.0), seed=0):
    # golden-ratio lattice in (u, w); w inverted through the area CDF in v
    if not (r_major > r_minor > 0):
        raise DomainError("torus needs r_major > r_minor > 0")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    nodes = []
    for i in range(n):
        u = 2.0 * math.pi * ((i * phi) % 1.0)
        w = (i + 0.5) / n
        v = _torus_v_from_cdf(w, r_major, r_minor)
        cu, su = math.cos(u), math.sin(u)
        cv, sv = math.cos(v), math.sin(v)
        x = ((r_major + r_minor * cv) * cu + center[0],
             (r_major + r_minor * cv) * su + center[1],
             r_minor * sv + center[2])
        nodes.append(Node(x, (cv * cu, cv * su, sv)))
    return nodes


def _torus_v_from_cdf(w, R, r):
    # solve (R v + r sin v) / (2 pi R) = w on [0, 2 pi)
    v = 2.0 * math.pi * w
    for _ in range(50):
        f = (R * v + r * math.sin(v)) / (2.0 * math.pi * R) - w
        fp = (R + r * math.cos(v)) / (2.0 * math.pi * R)
        step = f / fp
        v -= step
        if abs(step) < 1e-14:
            break
    return v


def _hypersphere4(n, r=1.0, seed=0):
    # seeded rejection sampling in [-1,1]^4, normalized onto the 3-sphere
    if r <= 0:
        raise DomainError("hypersphere4 needs r > 0")
    rng = np.random.default_rng(seed)
    nodes = []
    while len(nodes) < n:
        cand = rng.uniform(-1.0, 1.0, size=4)
        norm = float(np.linalg.norm(cand))
        if 1e-3 < norm <= 1.0:
            d = cand / norm
            nodes.append(Node(tuple(r * d), tuple(d)))
    return nodes


def nodes_points(nodes):
    return np.asarray([nd.x for nd in nodes], dtype=float)


def nodes_normals(nodes):
    out = []
    for nd in nodes:
        out.append(nd.normal if nd.normal is not None else (math.nan,) * len(nd.x))
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# source placement

def gen_sources(base, placement, n=None, **params):
    """SourceSet on a fictitious boundary.

    placements: scaled_circle(r, center), scaled_sphere(r, center),
    inflated(factor, center), same_nodes_with_delay(dt) (space-time sets).
    """
    if placement == "scaled_circle":
        nodes = _circle(n, **params)
        return SourceSet(nodes_points(nodes))
    if placement == "scaled_sphere":
        nodes = _sphere(n, **params)
        return SourceSet(nodes_points(nodes))
    if placement == "inflated":
        factor = params.get("factor")
        if not factor or factor <= 0:
            raise DomainError("inflated placement needs factor > 0")
        pts = np.asarray(base, dtype=float)
        center = np.asarray(params["center"], dtype=float) if "center" in params \
            else np.zeros(pts.shape[-1])
        return SourceSet(center + factor * (pts - center))
    if placement == "same_nodes_with_delay":
        dt = params.get("dt", 0.0)
        if dt <= 0:
            raise DomainError("same_nodes_with_delay needs dt > 0")
        if not isinstance(base, CollocationSet) or base.times is None:
            raise DomainError("same_nodes_with_delay needs a space-time CollocationSet")
        # sources sit dt in the past so theta(t - tau) is active on the window
        return SourceSet(base.points.copy(), times=base.times - dt, delay_dt=dt)
    raise DomainError(f"unsupported placement {placement!r}")


# ---------------------------------------------------------------------------
# space-time grids

def gen_spacetime_grid(boundary_nodes, time_instants, initial_nodes,
                       bc_value=None, init_value=None):
    """Boundary rows at each (x_b, t_j), initial rows at (x, 0).

    Values come from the callables (default zero); N = N_Bou + N_Ini.
    """
    instants = [float(t) for t in time_instants]
    if not instants:
        raise DomainError("need at least one time instant")
    if any(t <= 0 for t in instants) or any(b >= a for a, b in zip(instants[1:], instants)):
        raise DomainError("time instants must be strictly increasing and > 0")
    pts, kinds, values, times, normals = [], [], [], [], []
    for t in instants:
        for nd in boundary_nodes:
            pts.append(nd.x)
            kinds.append(DIRICHLET)
            values.append(0.0 if bc_value is None else float(bc_value(nd.x, t)))
            times.append(t)
            normals.append(nd.normal if nd.normal is not None else (math.nan,) * len(nd.x))
    for nd in initial_nodes:
        pts.append(nd.x)
        kinds.append(INITIAL)
        values.append(0.0 if init_value is None else float(init_value(nd.x)))
        times.append(0.0)
        normals.append(nd.normal if nd.normal is not None else (math.nan,) * len(nd.x))
    return CollocationSet(pts, kinds, values, normals=normals, times=times)


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
            if has_normals:
                raw_nm = cells[idx:idx + dim]
                idx += dim
                if any(c.strip() for c in raw_nm):
                    nm = tuple(float(c) for c in raw_nm)
            kind = DIRICHLET
            if has_kind:
                kind = cells[idx].strip()
                idx += 1
            val = float(cells[idx])
        except ValueError as exc:
            raise NodeFileError(f"cannot parse row: {exc}", line=ln) from exc
        if kind not in KINDS:
            raise NodeFileError(f"unknown kind {kind!r}", line=ln)
        if kind == NEUMANN and not all(math.isfinite(v) for v in nm):
            raise NodeFileError("Neumann row lacks a normal", line=ln)
        if all(math.isfinite(v) for v in nm):
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
    out = []
    R, r = r_major, r_minor
    while len(out) < n:
        cand = rng.uniform([-(R + r), -(R + r), -r], [R + r, R + r, r])
        rho = math.hypot(cand[0], cand[1])
        if (rho - R) ** 2 + cand[2] ** 2 < r * r:
            out.append(cand + np.asarray(center))
    return np.asarray(out)
