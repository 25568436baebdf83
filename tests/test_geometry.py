import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikfnn.errors import DomainError, NodeFileError
from pikfnn.geometry import (
    CollocationSet,
    SourceSet,
    coordinate_dot,
    gen_boundary,
    gen_sources,
    gen_spacetime_grid,
    interior_torus,
    load_nodes,
    pairwise_differences,
    pairwise_sq_dist,
    save_nodes,
    validate_source_separation,
)


def test_circle_four_nodes():
    pts, nm = gen_boundary("circle", 4, r=1.0)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(pts, expect, atol=1e-15)
    assert np.array_equal(nm, pts)  # radial normals on the unit circle


def test_square_80_nodes_per_edge():
    pts, nm = gen_boundary("square", 80, a=-1.0, b=1.0)
    assert pts.shape == nm.shape == (80, 2)
    assert np.sum(pts[:, 1] == -1.0) == 20  # bottom
    assert np.sum(pts[:, 0] == 1.0) == 20   # right
    # corner-exclusive
    assert not np.any(np.all(np.abs(pts) == 1.0, axis=1))


def test_sphere_two_nodes_are_poles():
    pts, _ = gen_boundary("sphere", 2, r=1.0)
    assert np.allclose(sorted(pts[:, 2]), [-1.0, 1.0], atol=1e-15)
    assert np.allclose(pts[:, :2], 0.0, atol=1e-15)


@pytest.mark.parametrize("shape,params,implicit", [
    ("circle", dict(r=2.5), lambda p: np.abs(np.linalg.norm(p, axis=1) - 2.5)),
    ("sphere", dict(r=1.5), lambda p: np.abs(np.linalg.norm(p, axis=1) - 1.5)),
    ("hypersphere4", dict(r=1.0, seed=3), lambda p: np.abs(np.linalg.norm(p, axis=1) - 1.0)),
    ("torus", dict(r_major=2.0, r_minor=0.5),
     lambda p: np.abs((np.hypot(p[:, 0], p[:, 1]) - 2.0) ** 2 + p[:, 2] ** 2 - 0.25)),
])
def test_implicit_equation_satisfied(shape, params, implicit):
    pts, _ = gen_boundary(shape, 97, **params)
    assert np.max(implicit(pts)) <= 1e-12


def test_normals_unit_and_analytic():
    for shape, params in [("circle", dict(r=2.0)), ("sphere", dict(r=1.0)),
                          ("torus", dict(r_major=2.0, r_minor=0.5))]:
        _, nm = gen_boundary(shape, 64, **params)
        assert np.allclose(np.linalg.norm(nm, axis=1), 1.0, atol=1e-12)
    # circle/sphere normals are radial
    pts, nm = gen_boundary("sphere", 50, r=3.0)
    assert np.max(np.abs(pts / 3.0 - nm)) <= 1e-10


def test_lshape_nodes_on_boundary_with_outward_normals():
    pts, nms = gen_boundary("lshape", 62, scale=1.0)
    assert pts.shape == nms.shape == (62, 2)
    for (x1, x2), normal in zip(pts, nms):
        on_outer = any(abs(v - e) < 1e-12 for v in (x1, x2) for e in (-1.0, 1.0))
        on_inner = (abs(x1) < 1e-12 and 0 <= x2 <= 1) or (abs(x2) < 1e-12 and 0 <= x1 <= 1)
        assert on_outer or on_inner
        # stepping outward leaves the domain
        eps = 1e-6
        out = (x1 + eps * normal[0], x2 + eps * normal[1])
        inside = (-1 <= out[0] <= 1 and -1 <= out[1] <= 1
                  and not (out[0] >= 0 and out[1] >= 0))
        assert not inside


def test_generation_deterministic():
    for shape, params in (("hypersphere4", {"seed": 11}), ("torus", {})):
        a = gen_boundary(shape, 40, **params)
        b = gen_boundary(shape, 40, **params)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("shape", ["square", "circle", "lshape", "sphere", "torus"])
def test_only_a_drawing_generator_takes_a_seed(shape):
    # the other shapes place their nodes by formula, so a seed would do nothing
    with pytest.raises(TypeError, match="seed"):
        gen_boundary(shape, 40, seed=1)


def test_unsupported_shape():
    with pytest.raises(DomainError):
        gen_boundary("pentagon", 10)


# ---------------------------------------------------------------------------
# sources

def test_scaled_circle_sources():
    src = gen_sources(None, "scaled_circle", n=400, r=3.0)
    assert len(src) == 400
    assert np.allclose(np.linalg.norm(src.points, axis=1), 3.0, atol=1e-12)


@pytest.mark.parametrize("placement", ["scaled_circle", "scaled_sphere"])
@pytest.mark.parametrize("n", [None, 0, 2.5, True, "10"])
def test_scaled_placements_need_n(placement, n):
    with pytest.raises(DomainError, match=f"{placement} placement needs n"):
        gen_sources(None, placement, n=n, r=3.0)


def test_inflated_sources():
    pts, _ = gen_boundary("hypersphere4", 30, r=1.0, seed=2)
    src = gen_sources(pts, "inflated", factor=5.0)
    assert np.allclose(np.linalg.norm(src.points, axis=1), 5.0, atol=1e-10)


def test_same_nodes_with_delay():
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    grid = gen_spacetime_grid(boundary, [20.0, 40.0], boundary[:5])
    src = gen_sources(grid, "same_nodes_with_delay", dt=200.0)
    assert np.array_equal(src.points, grid.points)
    assert np.allclose(src.times, grid.times - 200.0)
    # causal: every source lies strictly in the past of every row time
    assert np.max(src.times) < np.min(grid.times)


def test_source_separation_guard():
    boundary, _ = gen_boundary("circle", 8, r=1.0)
    colloc = CollocationSet(boundary, ["D"] * 8, np.zeros(8))
    good = SourceSet(gen_boundary("circle", 8, r=3.0)[0])
    validate_source_separation(good, colloc)
    bad = SourceSet(boundary)
    with pytest.raises(DomainError):
        validate_source_separation(bad, colloc)


@pytest.mark.parametrize("dim", [2, 3])
def test_source_separation_threshold(dim):
    # one source sits delta from collocation row 3; the guard trips at
    # delta <= 1e-10 * max(1, max |x|), whichever coordinate carries delta
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-2.0, 2.0, size=(7, dim))
    colloc = CollocationSet(pts, ["D"] * 7, np.zeros(7))
    scale = float(np.max(np.abs(pts)))
    for axis in range(dim):
        for factor, raises in ((0.5, True), (2.0, False)):
            src = rng.uniform(5.0, 6.0, size=(5, dim))
            src[2] = pts[3]
            src[2, axis] += factor * 1e-10 * scale
            if raises:
                with pytest.raises(DomainError, match="coincide"):
                    validate_source_separation(SourceSet(src), colloc)
            else:
                validate_source_separation(SourceSet(src), colloc)


# ---------------------------------------------------------------------------
# space-time grids

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.integers(1, 9),
       dim=st.integers(1, 4))
def test_pairwise_sq_dist_splits_transposes_and_sums_in_order(seed, n, m, dim):
    # coordinates of very different sizes, so the order of the sum shows
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=dim)
    X = rng.standard_normal((n, dim)) * scales
    S = rng.standard_normal((m, dim)) * scales
    d2 = pairwise_sq_dist(X, S)
    ordered = (X[:, None, 0] - S[None, :, 0]) ** 2
    for i in range(1, dim):
        ordered = ordered + (X[:, None, i] - S[None, :, i]) ** 2
    assert d2.shape == (n, m) and np.array_equal(d2, ordered)
    i, j = rng.integers(0, n + 1), rng.integers(0, m + 1)
    assert np.array_equal(np.concatenate([pairwise_sq_dist(X[:i], S),
                                          pairwise_sq_dist(X[i:], S)]), d2)
    assert np.array_equal(np.concatenate([pairwise_sq_dist(X, S[:j]),
                                          pairwise_sq_dist(X, S[j:])], axis=1), d2)
    assert np.array_equal(pairwise_sq_dist(S, X), d2.T)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.integers(1, 9),
       dim=st.integers(1, 4))
def test_coordinate_differences_give_the_same_sq_dist(seed, n, m, dim):
    # formulas that read components take r^2 from the differences; it must
    # be pairwise_sq_dist's r^2 bit for bit
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=dim)
    X = rng.standard_normal((n, dim)) * scales
    S = rng.standard_normal((m, dim)) * scales
    d = pairwise_differences(X, S)
    assert len(d) == dim and all(np.array_equal(d_i, X[:, i, None] - S[None, :, i])
                                 for i, d_i in enumerate(d))
    assert np.array_equal(coordinate_dot(d, d), pairwise_sq_dist(X, S))


def test_spacetime_grid_counts_paper_numbers():
    boundary, _ = gen_boundary("circle", 998, r=1.0)
    initial, _ = gen_boundary("circle", 1279, r=0.9)
    grid = gen_spacetime_grid(boundary, (20, 40, 60, 80, 100), initial)
    assert grid.count("D") == 998 * 5
    assert grid.count("I") == 1279
    assert len(grid) == 4990 + 1279


def test_spacetime_grid_small_and_values():
    # each callable sees all its rows at once: bc_value once per instant
    calls = []

    def bc_value(X, t):
        calls.append((X.shape, t))
        return X[:, 0] + t

    boundary = [[1.0, 0.0], [2.0, 0.0]]
    grid = gen_spacetime_grid(boundary, [1.0, 3.0], [[0.5, 0.0]], bc_value=bc_value,
                              init_value=lambda X: 10.0 * X[:, 0])
    assert calls == [((2, 2), 1.0), ((2, 2), 3.0)]
    assert list(grid.kinds) == ["D", "D", "D", "D", "I"]
    assert np.array_equal(grid.values, [2.0, 3.0, 4.0, 5.0, 5.0])
    assert np.array_equal(grid.times, [1.0, 1.0, 3.0, 3.0, 0.0])
    assert np.isnan(grid.normals).all()  # D and I rows read no normal


def test_spacetime_grid_count_arithmetic():
    boundary, _ = gen_boundary("circle", 10, r=1.0)
    grid = gen_spacetime_grid(boundary, (20.0, 40.0), [])
    assert grid.count("D") == 20


def test_spacetime_grid_rejects_bad_instants():
    boundary, _ = gen_boundary("circle", 4, r=1.0)
    with pytest.raises(DomainError):
        gen_spacetime_grid(boundary, [], [])
    with pytest.raises(DomainError):
        gen_spacetime_grid(boundary, [2.0, 1.0], [])
    with pytest.raises(DomainError):
        gen_spacetime_grid(boundary, [0.0, 1.0], [])


# ---------------------------------------------------------------------------
# node files

def test_node_file_roundtrip_bit_exact(tmp_path):
    pts, nms = gen_boundary("circle", 7, r=math.pi / 3)
    colloc = CollocationSet(pts, ["D", "N", "D", "N", "I", "D", "R"],
                            np.linspace(-1, 1, 7) * math.e,
                            normals=nms,
                            times=np.linspace(0.1, 0.7, 7))
    path = tmp_path / "nodes.txt"
    save_nodes(path, colloc)
    back = load_nodes(path)
    assert np.array_equal(back.points, colloc.points)
    assert np.array_equal(back.values, colloc.values)
    assert np.array_equal(back.times, colloc.times)
    assert np.array_equal(back.normals, colloc.normals)
    assert list(back.kinds) == list(colloc.kinds)


def test_node_file_three_dirichlet(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("# dim=2 time=0 normals=0 kind_col=1\n"
                    "0,0,D,1.5\n"
                    "1,0,D,2.5\n"
                    "0,1,D,3.5\n")
    got = load_nodes(path)
    assert len(got) == 3
    assert set(got.kinds) == {"D"}
    assert got.values == pytest.approx([1.5, 2.5, 3.5])


def test_node_file_zero_normal_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# dim=2 time=0 normals=1 kind_col=1\n"
                    "0,0,0,0,N,1.0\n")
    with pytest.raises(NodeFileError):
        load_nodes(path)


@pytest.mark.parametrize("normal", ["inf,0", "0,-inf", "nan,nan", "nan,1"])
@pytest.mark.parametrize("kind", ["D", "I", "N"])
def test_node_file_rejects_a_non_finite_normal_on_any_row(tmp_path, normal, kind):
    path = tmp_path / "bad.txt"
    path.write_text("# dim=2 time=0 normals=1 kind_col=1\n"
                    "0,1,0,1,D,1.0\n"
                    f"1,0,{normal},{kind},1.0\n")
    with pytest.raises(NodeFileError, match="normal must be finite") as err:
        load_nodes(path)
    assert err.value.line == 3


# cells a node file may hold: numbers, blanks and non-finite or malformed ones
_CELLS = st.sampled_from(["0", "1", "-1", "0.6", "-0.8", "2.5e-3", "", " ", "inf", "-inf",
                          "nan", "x"])


def _normal_cells(dim):
    # absent, unit, or anything; the unit ones keep many draws loadable
    unit = ["0.6", "0.8"] + ["0"] * (dim - 2) if dim > 1 else ["-1"]
    return st.one_of(st.just([""] * dim), st.just(unit),
                     st.lists(_CELLS, min_size=dim, max_size=dim))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), has_time=st.booleans(),
       has_normals=st.booleans(), has_kind=st.booleans())
def test_every_node_file_that_loads_survives_a_save_and_reload(data, dim, has_time,
                                                               has_normals, has_kind):
    number = st.one_of(st.sampled_from(["0", "1", "-0.5", "3.25"]), _CELLS)
    lines = [f"# dim={dim} time={int(has_time)} normals={int(has_normals)} "
             f"kind_col={int(has_kind)}"]
    for _ in range(data.draw(st.integers(1, 4))):
        cells = data.draw(st.lists(number, min_size=dim, max_size=dim))
        if has_time:
            cells.append(data.draw(number))
        if has_normals:
            cells += data.draw(_normal_cells(dim))
        if has_kind:
            cells.append(data.draw(st.sampled_from(["D", "N", "I", "R", "X"])))
        cells.append(data.draw(number))
        lines.append(",".join(cells))
    with tempfile.TemporaryDirectory() as tmp:
        path, saved = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            colloc = load_nodes(path)
        except (NodeFileError, DomainError):
            return
        save_nodes(saved, colloc)
        back = load_nodes(saved)
    assert np.array_equal(back.points, colloc.points)
    assert np.array_equal(back.values, colloc.values)
    assert np.array_equal(back.normals, colloc.normals, equal_nan=True)
    assert (back.times is None) == (colloc.times is None)
    assert colloc.times is None or np.array_equal(back.times, colloc.times)
    assert list(back.kinds) == list(colloc.kinds)


def test_node_file_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("# dim=2 time=0 normals=0 kind_col=1\n"
                    "0,0,D,1.0\n"
                    "0,zzz,D,1.0\n")
    with pytest.raises(NodeFileError) as err:
        load_nodes(path)
    assert err.value.line == 3


def test_node_file_missing_header(tmp_path):
    path = tmp_path / "noheader.txt"
    path.write_text("0,0,D,1.0\n")
    with pytest.raises(NodeFileError):
        load_nodes(path)


def test_cauchy_style_file_doubles_rows(tmp_path):
    # over-specified data: same locations carry Dirichlet and Neumann rows
    pts, nms = gen_boundary("circle", 5, r=1.0)
    pts = np.vstack([pts, pts])
    kinds = ["D"] * 5 + ["N"] * 5
    normals = np.vstack([nms, nms])
    colloc = CollocationSet(pts, kinds, np.arange(10.0), normals=normals)
    path = tmp_path / "cauchy.txt"
    save_nodes(path, colloc)
    back = load_nodes(path)
    assert len(back) == 10
    assert back.count("D") == 5 and back.count("N") == 5


# ---------------------------------------------------------------------------
# misc invariants

def test_node_validation():
    with pytest.raises(DomainError):
        CollocationSet([[0, 0]], ["N"], [0.0], normals=[[2.0, 0.0]])  # not unit
    with pytest.raises(DomainError):
        CollocationSet([[0, 0]], ["N"], [0.0])  # Neumann without a normal
    with pytest.raises(DomainError):
        CollocationSet([[0, 0]], ["X"], [0.0])


def test_collocation_names_first_bad_neumann_row_and_unknown_kinds():
    pts = np.zeros((6, 2))
    normals = np.full((6, 2), np.nan)
    normals[[1, 3, 5]] = [[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]]
    kinds = ["D", "N", "D", "N", "I", "N"]
    CollocationSet(pts, kinds, np.zeros(6), normals=normals)  # D/I rows need no normal
    for bad_normal in ([np.nan, 0.0], [1.0, 1e-4]):
        bad = normals.copy()
        bad[3] = bad[5] = bad_normal
        with pytest.raises(DomainError, match=r"Neumann row 3 needs a unit normal"):
            CollocationSet(pts, kinds, np.zeros(6), normals=bad)
    with pytest.raises(DomainError, match=r"unknown row kinds \['Q', 'X'\]"):
        CollocationSet(pts, ["X", "D", "Q", "X", "D", "D"], np.zeros(6))


def test_interior_torus_inside():
    pts = interior_torus(2.0, 0.5, 100, seed=4)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all((rho - 2.0) ** 2 + pts[:, 2] ** 2 < 0.25)
    assert pts.shape == (100, 3)
