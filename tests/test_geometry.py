import importlib.machinery
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiheat
from semiheat import (
    CLOSED_KINDS,
    build_manifold,
    curvature_bound,
    gradient_norm,
    implicit_diffusion_solve,
    laplace_beltrami,
    laplacian_spectrum,
)
from semiheat.cli import main as cli_main
from semiheat.geometry import _GAUSS_NODES, _GAUSS_WEIGHTS, _greatest, _least


def test_build_round_sphere_curvature():
    m = build_manifold("sphere_zonal", 2, 1.0, 256)
    assert m.ricci_lower == pytest.approx(1.0)
    assert curvature_bound(m) == pytest.approx(1.0)
    assert m.node_count == 256
    assert m.nodes[0] == 0.0 and m.nodes[-1] == pytest.approx(np.pi)


def test_build_flat_kinds_have_zero_ricci():
    circle = build_manifold("circle", 1, 2 * np.pi, 128)
    radial = build_manifold("euclidean_radial", 4, 20.0, 2000)
    assert circle.ricci_lower == 0.0
    assert radial.ricci_lower == 0.0
    assert curvature_bound(circle) == 0.0


def test_build_manifold_rejects_bad_combinations():
    with pytest.raises(ValueError):
        build_manifold("klein_bottle", 2, 1.0, 64)
    with pytest.raises(ValueError):
        build_manifold("sphere_zonal", 1, 1.0, 64)
    with pytest.raises(ValueError):
        build_manifold("circle", 2, 1.0, 64)
    with pytest.raises(ValueError):
        build_manifold("euclidean_radial", 4, -3.0, 64)
    with pytest.raises(ValueError):
        build_manifold("sphere_zonal", 2, 1.0, 8)


@pytest.mark.parametrize(
    "args, message",
    [
        (("sphere_zonal", 2.5, 1.0, 64), "n must be an integer, got 2.5"),
        (("euclidean_radial", 3.9, 1.0, 64), "n must be an integer, got 3.9"),
        (("sphere_zonal", True, 1.0, 64), "n must be an integer, got True"),
        (("sphere_zonal", 2, 1.0, 64.0), "node_count must be an integer, got 64.0"),
        (("circle", 1, float("nan"), 64), "radius_or_length must be positive and finite, got nan"),
        (("circle", 1, float("inf"), 64), "radius_or_length must be positive and finite, got inf"),
    ],
)
def test_build_manifold_names_the_bad_argument(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_manifold(*args)


def test_build_manifold_takes_numpy_integers():
    m = build_manifold("sphere_zonal", np.int64(2), np.float64(1.0), np.int32(64))
    assert m.n == 2 and type(m.n) is int and m.node_count == 64


@pytest.mark.parametrize(
    "kind, n, size, count",
    [
        ("sphere_zonal", 200, 1.0, 256),  # volume weights underflow
        ("euclidean_radial", 300, 1.0, 256),
        ("circle", 1, 1e308, 64),  # overflow
        ("circle", 1, 1e-308, 64),  # division by zero
        ("sphere_zonal", 2, 1e-308, 64),
        ("circle", 1, 6e-153, 64),  # infinite operator entries
    ],
)
def test_build_manifold_refuses_unbuildable_sizes(kind, n, size, count):
    with pytest.raises(ValueError):
        build_manifold(kind, n, size, count)


def test_flat_torus_is_not_a_spelling_of_the_circle(tmp_path, capsys):
    # the circle has one name, so one experiment has one config hash and one
    # report name
    with pytest.raises(ValueError, match="^unknown manifold kind 'flat_torus_1d'$"):
        build_manifold("flat_torus_1d", 1, 6.3, 64)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"manifold": {"kind": "flat_torus_1d", "n": 1, "size": 6.3, "resolution": 64}}))
    assert cli_main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: manifold.kind: unknown manifold kind 'flat_torus_1d'\n"


def run_fresh(code, **env):
    """Run code in a fresh interpreter that imports semiheat from this tree,
    with ``env`` added to its environment; its standard output, stripped."""
    src = os.path.dirname(os.path.dirname(semiheat.__file__))
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
                         capture_output=True, text=True, check=True, env={**os.environ, **env})
    return out.stdout.strip()


def test_import_leaves_scipy_sparse_unloaded():
    # the operators live in band form only; nothing needs scipy.sparse
    assert run_fresh("import semiheat; print('scipy.sparse' in sys.modules)") == "False"


def test_import_leaves_scipy_linalg_unloaded():
    # the LAPACK wrappers are loaded from their file, not through
    # scipy.linalg, whose import costs more than the rest of semiheat's
    code = """
import semiheat, semiheat.cli
loaded = ["scipy.linalg" in sys.modules]
m = semiheat.build_manifold("sphere_zonal", 2, 1.0, 64)
semiheat.laplacian_spectrum(m)
semiheat.implicit_diffusion_solve(m, m.nodes, 0.01)
r = semiheat.build_manifold("euclidean_radial", 3, 10.0, 64)
semiheat.implicit_diffusion_solve(r, r.nodes, 0.01)
loaded.append("scipy.linalg" in sys.modules)
print(loaded)
"""
    assert run_fresh(code) == "[False, False]"


def test_scipy_linalg_imports_after_semiheat():
    # a later import of scipy.linalg reuses the module semiheat loaded, and
    # its banded solve agrees with the step solve bit for bit
    code = """
import numpy as np
import semiheat
from semiheat import geometry
import scipy.linalg, scipy.linalg.lapack
assert scipy.linalg.lapack.dgtsv is geometry._lapack.dgtsv
for kind, n, size in (("sphere_zonal", 2, 1.0), ("euclidean_radial", 3, 10.0)):
    m = semiheat.build_manifold(kind, n, size, 40)
    l, u, ab = m._ops["band"]
    ab = -0.01 * ab
    ab[u] += 1.0
    b = np.cos(m.nodes)
    x = semiheat.implicit_diffusion_solve(m, b, 0.01)
    assert np.array_equal(scipy.linalg.solve_banded((l, u), ab, b), x), kind
print("ok")
"""
    assert run_fresh(code) == "ok"


def test_gauss_literals_are_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GAUSS_NODES.tobytes() == nodes.tobytes()
    assert _GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_sphere_build_leaves_numpy_polynomial_unloaded():
    # the eight Gauss nodes are literals; numpy.polynomial, nine modules,
    # stays out of set-up
    code = """
import semiheat
semiheat.laplacian_spectrum(semiheat.build_manifold("sphere_zonal", 2, 1.0, 256))
print("numpy.polynomial" in sys.modules)
"""
    assert run_fresh(code) == "False"


def _bits(x):
    # the float64 bits of x, or "nan" for any NaN
    return "nan" if math.isnan(x) else int(np.float64(x).view(np.uint64))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    values=st.lists(
        st.one_of(
            st.floats(),
            st.floats(-1e-300, 1e-300),  # subnormals and zeros of either sign
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0, -1.0]),
        ),
        min_size=1,
        max_size=300,
    ),
    rows=st.sampled_from([1, 2, 3]),
)
@example(values=[-0.0, 0.0], rows=1)  # argmax picks -0.0, where max() gives 0.0
@example(values=[0.0, -0.0], rows=1)
def test_least_and_greatest_are_min_and_max_bit_for_bit(values, rows):
    # the step loop reads every min, max and finiteness test through these:
    # equal nonzero floats share their bits, a zero's sign comes from min()
    # and max() themselves, and NaN is NaN; the step matrix is 2-D
    a = np.array(values)
    if a.size % rows == 0:
        a = a.reshape(rows, -1)
    least, greatest = _least(a), _greatest(a)
    assert type(least) is float and type(greatest) is float
    assert _bits(least) == _bits(a.min())
    assert _bits(greatest) == _bits(a.max())


def test_laplacian_of_constant_is_zero():
    for kind, n in [("sphere_zonal", 2), ("circle", 1)]:
        m = build_manifold(kind, n, 2.0, 96)
        out = laplace_beltrami(m, np.full(m.node_count, 3.7))
        assert np.max(np.abs(out)) <= 1e-12
    m = build_manifold("euclidean_radial", 3, 10.0, 96)
    out = laplace_beltrami(m, np.full(m.node_count, 3.7))
    assert np.max(np.abs(out)) <= 1e-12


def test_zonal_eigenfunction_and_convergence_order():
    # cos(theta) is the first Legendre mode: Lap u = -2 u on the unit S^2
    errs = []
    for N in (128, 256, 512):
        m = build_manifold("sphere_zonal", 2, 1.0, N)
        u = np.cos(m.nodes)
        err = np.max(np.abs(laplace_beltrami(m, u) + 2.0 * u))
        errs.append(err)
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_circle_sine_laplacian():
    m = build_manifold("circle", 1, 2 * np.pi, 256)
    u = np.sin(m.nodes)
    err = np.max(np.abs(laplace_beltrami(m, u) + u))
    assert err <= 5.0 * m.spacing**2


def test_gradient_norm_examples():
    m = build_manifold("circle", 1, 2 * np.pi, 256)
    g = gradient_norm(m, np.sin(m.nodes))
    assert np.max(np.abs(g - np.abs(np.cos(m.nodes)))) <= 5.0 * m.spacing**2

    m2 = build_manifold("sphere_zonal", 2, 2.0, 256)
    g2 = gradient_norm(m2, np.cos(m2.nodes))
    assert np.max(np.abs(g2 - np.abs(np.sin(m2.nodes)) / 2.0)) <= 5.0 * m2.spacing**2

    const = gradient_norm(m, np.full(m.node_count, 4.0))
    assert np.max(np.abs(const)) == 0.0


def test_gradient_norm_nonnegative():
    m = build_manifold("sphere_zonal", 2, 1.0, 96)
    rng = np.random.default_rng(3)
    for _ in range(4):
        assert np.min(gradient_norm(m, rng.normal(size=m.node_count))) >= 0.0


def test_gradient_norm_block_matches_rows():
    rng = np.random.default_rng(5)
    for kind, n in [("sphere_zonal", 2), ("circle", 1), ("euclidean_radial", 3)]:
        m = build_manifold(kind, n, 3.0, 64)
        block = np.vstack([rng.normal(size=(4, m.node_count)), np.full(m.node_count, 2.5)])
        g = gradient_norm(m, block)
        assert g.shape == block.shape
        for row, values in zip(g, block):
            assert np.array_equal(row, gradient_norm(m, values)), kind
        if kind == "circle":  # both ends difference across the wraparound
            wrapped = np.abs((np.roll(block, -1, axis=1) - np.roll(block, 1, axis=1)) / (2.0 * m.spacing))
            assert np.array_equal(g, wrapped)


def test_self_adjointness_in_weighted_inner_product():
    rng = np.random.default_rng(11)
    for kind, n in [("sphere_zonal", 3), ("circle", 1)]:
        m = build_manifold(kind, n, 2.5, 200)
        a = rng.normal(size=m.node_count)
        b = rng.normal(size=m.node_count)
        la = laplace_beltrami(m, a)
        lb = laplace_beltrami(m, b)
        w = m.volume_weights
        gap = abs(np.sum(w * la * b) - np.sum(w * a * lb))
        assert gap <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


def test_discrete_divergence_theorem_closed_kinds():
    rng = np.random.default_rng(5)
    for kind, n in [("sphere_zonal", 2), ("circle", 1)]:
        assert kind in CLOSED_KINDS
        m = build_manifold(kind, n, 3.0, 180)
        u = rng.normal(size=m.node_count)
        total = np.sum(m.volume_weights * laplace_beltrami(m, u))
        assert abs(total) <= 1e-10 * np.max(np.abs(u))


def test_sphere_spectrum_matches_round_values():
    m = build_manifold("sphere_zonal", 2, 1.0, 256)
    lam, modes = laplacian_spectrum(m)
    assert abs(lam[0]) <= 1e-8
    # zonal eigenvalues are l(l+1): 2, 6, 12, ...
    assert lam[1] == pytest.approx(2.0, rel=1e-3)
    assert lam[2] == pytest.approx(6.0, rel=1e-3)
    assert np.max(np.abs(modes[:, 1])) == pytest.approx(1.0)


def test_circle_spectrum_wavenumbers():
    m = build_manifold("circle", 1, 2 * np.pi, 128)
    lam, _ = laplacian_spectrum(m)
    # k^2 with multiplicity two for k >= 1
    assert lam[1] == pytest.approx(1.0, rel=1e-3)
    assert lam[2] == pytest.approx(1.0, rel=1e-3)
    assert lam[3] == pytest.approx(4.0, rel=4e-3)


def eigh_spectrum(m):
    """The spectrum as scipy.linalg.eigh gives it for the symmetrized
    matrix, in the order and normalization laplacian_spectrum returns."""
    N = m.node_count
    L = np.column_stack([laplace_beltrami(m, e) for e in np.eye(N)])  # column j is L e_j
    w_half = np.sqrt(m.volume_weights)
    S = (w_half[:, None] * L) / w_half[None, :]
    vals, vecs = scipy.linalg.eigh(0.5 * (S + S.T))
    y = vecs[:, ::-1] / w_half[:, None]
    for j in range(N):
        y[:, j] = y[:, j] / y[np.argmax(np.abs(y[:, j])), j]
    return -vals[::-1], y


@pytest.mark.parametrize(
    "kind, n, size, count",
    [
        *[("sphere_zonal", 2, 1.0, count) for count in (256, 1000)],
        # the sphere's tridiagonal path across dimensions and sizes
        *[("sphere_zonal", n, size, count) for n in range(2, 7) for size, count in ((0.7, 16), (1.0, 37), (2.5, 512))],
    ],
)
def test_spectrum_equals_eigh_bit_for_bit(kind, n, size, count):
    # the sphere calls dstemr on the tridiagonal matrix dsyevr would hand
    # it; a different driver, workspace, triangle or order of operations
    # would move the last bits
    lam, modes = laplacian_spectrum(build_manifold(kind, n, size, count))
    ref_lam, ref_modes = eigh_spectrum(build_manifold(kind, n, size, count))
    assert lam.tobytes() == ref_lam.tobytes()
    assert modes.tobytes() == ref_modes.tobytes()


def _circle_eigenspaces(count):
    # column groups of one eigenvalue: the constant, each wavenumber's
    # pair, and for even counts the alternating mode
    groups = [[0], *([c, c + 1] for c in range(1, count - 1, 2))]
    return groups + [[count - 1]] if count % 2 == 0 else groups


@pytest.mark.parametrize("count", [16, 17, 18, 19, 30, 256, 257, 1000])
def test_circle_spectrum_spans_eighs_eigenspaces(count):
    # counts 0, 1, 2 and 3 mod 4: the eigenvalues are eigh's to 1e-14 of
    # the largest, and each closed-form group spans the eigenspace eigh's
    # vectors of that group span
    m = build_manifold("circle", 1, 2 * np.pi * 0.37, count)
    lam, modes = laplacian_spectrum(m)
    ref_lam, ref_modes = eigh_spectrum(m)
    assert np.max(np.abs(lam - ref_lam)) <= 1e-14 * ref_lam[-1]
    for group in _circle_eigenspaces(count):
        q, _ = np.linalg.qr(ref_modes[:, group])
        ours = modes[:, group] / np.linalg.norm(modes[:, group], axis=0)
        assert np.max(np.abs(ours - q @ (q.T @ ours))) <= 1e-9, group
        assert np.linalg.svd(q.T @ ours, compute_uv=False).min() >= 1.0 - 1e-9, group
    assert np.array_equal(np.max(np.abs(modes), axis=0), np.ones(count))
    assert np.array_equal(modes[np.argmax(np.abs(modes), axis=0), np.arange(count)], np.ones(count))


@pytest.mark.parametrize("count", [16, 17, 18, 19])
def test_circle_spectrum_order_is_cos_before_sin(count):
    # column c holds wavenumber k = (c + 1) // 2: the constant, then cos
    # before sin for each k, and for even counts the alternating mode last;
    # a sin whose largest modulus is off the grid's nodes (counts not a
    # multiple of 4) is scaled to sup-norm 1 by its largest node value.
    # Where +max and -max tie in exact arithmetic, the rounding of the
    # phase decides the sign, so the reference takes the spectrum's phases
    m = build_manifold("circle", 1, 3.0, count)
    lam, modes = laplacian_spectrum(m)
    h = 3.0 / count
    j = np.arange(count)
    assert lam[0] == 0.0 and np.array_equal(modes[:, 0], np.ones(count))
    for c in range(1, count):
        k = (c + 1) // 2
        wave = (np.sin if c % 2 == 0 else np.cos)((k * j % count) * (2.0 * np.pi / count))
        wave /= wave[np.argmax(np.abs(wave))]
        assert lam[c] == pytest.approx(4.0 / h**2 * np.sin(np.pi * k / count) ** 2, rel=1e-14), c
        assert np.max(np.abs(modes[:, c] - wave)) <= 1e-13, c
    if count % 2 == 0:
        assert np.array_equal(modes[:, -1], (-1.0) ** j)
    assert np.all(np.diff(lam) >= 0)


def test_circle_spectrum_does_not_depend_on_the_blas_thread_count():
    # every nonzero eigenvalue of the circle is double; a dense eigensolver
    # picked a basis of each eigenspace that moved with the OpenBLAS thread
    # count (mode 1 was -sin at two threads and -cos at one on 256 nodes)
    code = """
import hashlib, semiheat
lam, modes = semiheat.laplacian_spectrum(semiheat.build_manifold("circle", 1, 6.283185307179586, 256))
print(hashlib.sha256(lam.tobytes() + modes.tobytes()).hexdigest())
"""
    digests = {run_fresh(code, OPENBLAS_NUM_THREADS=str(threads)) for threads in (1, 2)}
    assert len(digests) == 1


def _lapack_results():
    # the spectra of the closed kinds and a step solve on every kind, each on
    # a fresh manifold, so nothing comes from a cached factor or spectrum
    out = []
    for kind, (n, size) in sorted(_KIND_SPECS.items()):
        m = build_manifold(kind, n, size, 256)
        if kind in CLOSED_KINDS:
            out.extend(laplacian_spectrum(m))
        out.append(implicit_diffusion_solve(m, np.cos(m.nodes) + 2.0, 0.01))
    return out


@pytest.mark.parametrize("layout", ["no scipy found", "no _flapack file"])
def test_lapack_fallback_gives_the_same_bits(monkeypatch, tmp_path, layout):
    # where scipy's extension file cannot be found, the one-time choice
    # falls back to scipy.linalg.lapack; run it again under a finder that
    # fails, put its choice in place of the loaded module, and compare
    from semiheat import geometry

    assert geometry._lapack.__name__ == "scipy.linalg._flapack"
    fast = _lapack_results()
    find_spec = importlib.util.find_spec

    def failing_find_spec(name, package=None):
        if name != "scipy":
            return find_spec(name, package)
        if layout == "no scipy found":
            return None
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))  # holds no linalg/_flapack*
        return spec

    monkeypatch.setattr(importlib.util, "find_spec", failing_find_spec)
    fallback = geometry._lapack_module()
    assert fallback is scipy.linalg.lapack
    monkeypatch.setattr(geometry, "_lapack", fallback)
    slow = _lapack_results()
    assert len(slow) == len(fast) == 7
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


def test_spectrum_rejects_open_kind():
    m = build_manifold("euclidean_radial", 3, 5.0, 64)
    with pytest.raises(ValueError):
        laplacian_spectrum(m)


@pytest.mark.parametrize("kind, n", [("circle", 1), ("sphere_zonal", 2)])
def test_spectrum_refuses_a_grid_beyond_its_node_cap(kind, n):
    # the sphere's eigenvectors fill an N x N array; 4096 nodes is the cap
    m = build_manifold(kind, n, 1.0, 4097)
    with pytest.raises(ValueError, match="grid too large for a dense spectrum"):
        laplacian_spectrum(m)
    assert "spectrum" not in m._ops


def test_implicit_diffusion_preserves_constants_and_decays_modes():
    m = build_manifold("circle", 1, 2 * np.pi, 128)
    const = np.full(m.node_count, 2.5)
    out = implicit_diffusion_solve(m, const, 0.37)
    assert np.max(np.abs(out - 2.5)) <= 1e-12

    u = np.sin(m.nodes)
    dt = 0.05
    out = implicit_diffusion_solve(m, u, dt)
    lam, _ = laplacian_spectrum(m)
    expected = u / (1.0 + dt * lam[1])
    assert np.max(np.abs(out - expected)) <= 1e-6


def test_implicit_diffusion_converts_a_list_as_laplace_beltrami_does():
    m = build_manifold("circle", 1, 2 * np.pi, 64)
    u = np.sin(m.nodes)
    assert np.array_equal(implicit_diffusion_solve(m, u.tolist(), 0.05), implicit_diffusion_solve(m, u, 0.05))
    with pytest.raises(ValueError, match="not aligned"):
        implicit_diffusion_solve(m, u.tolist()[:-1], 0.05)


def test_implicit_diffusion_keeps_nonnegative_data_nonnegative():
    for kind, n in [("sphere_zonal", 2), ("circle", 1), ("euclidean_radial", 3)]:
        m = build_manifold(kind, n, 4.0, 128)
        u = np.maximum(np.sin(7.0 * m.nodes), 0.0)
        out = u.copy()
        for _ in range(50):
            out = implicit_diffusion_solve(m, out, 0.02)
        assert float(np.min(out)) >= -1e-13


def test_misaligned_field_rejected():
    m = build_manifold("circle", 1, 2 * np.pi, 64)
    with pytest.raises(ValueError):
        laplace_beltrami(m, np.ones(63))
    with pytest.raises(ValueError):
        gradient_norm(m, np.ones(65))
    with pytest.raises(ValueError):
        gradient_norm(m, np.ones((3, 65)))
    with pytest.raises(ValueError):
        gradient_norm(m, np.ones((2, 3, 64)))


# ------------------------------------------------ the factored step solve


def reference_solve(m, values, dt):
    """The plain solve the factored step must reproduce bit for bit: a fresh
    solve_banded per call, the circle through the Sherman-Morrison form with
    both right-hand sides in one tridiagonal solve."""
    l, u, ab = m._ops["band"]
    ab = -dt * ab
    ab[u, :] += 1.0
    if m.kind != "circle":
        return scipy.linalg.solve_banded((l, u), ab, values)
    c_lr, c_ul = ab[0, 0], ab[2, -1]
    gamma = -ab[1, 0]
    ab[1, 0] -= gamma
    ab[1, -1] -= c_ul * c_lr / gamma
    rhs = np.zeros((values.size, 2))
    rhs[:, 0] = values
    rhs[0, 1] = gamma
    rhs[-1, 1] = c_lr
    y, z = scipy.linalg.solve_banded((1, 1), ab, rhs).T
    vy = y[0] + c_ul * y[-1] / gamma
    vz = z[0] + c_ul * z[-1] / gamma
    return y - z * (vy / (1.0 + vz))


_KIND_SPECS = {"sphere_zonal": (3, 2.0), "circle": (1, 5.0), "euclidean_radial": (3, 20.0)}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_KIND_SPECS)),
    count=st.integers(16, 400),
    log_dts=st.tuples(st.floats(-8.0, 1.0), st.floats(-8.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_solve_matches_plain_banded_solve(kind, count, log_dts, seed):
    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, count)
    rng = np.random.default_rng(seed)
    dt_a, dt_b = (10.0**x for x in log_dts)
    # each dt three times in a row, so the radial factor's second and later
    # solves (its permuted form) run as well as its first (dgbtrs), and A
    # after B: a factor kept for the wrong dt would show there
    for dt in (dt_a, dt_a, dt_a, dt_b, dt_b, dt_b, dt_a, dt_a, dt_a):
        u = rng.normal(size=count) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-2, 2)
        assert np.array_equal(implicit_diffusion_solve(m, u, dt), reference_solve(m, u, dt))


@pytest.mark.parametrize("kind", sorted(_KIND_SPECS))
def test_step_solve_refuses_non_finite_input(kind):
    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, 64)
    for bad in (np.nan, np.inf, -np.inf):
        u = np.ones(64)
        u[7] = bad
        with pytest.raises(ValueError):
            implicit_diffusion_solve(m, u, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        implicit_diffusion_solve(m, np.ones(64), 1e308)  # -dt * L overflows
    with pytest.raises(ValueError):
        implicit_diffusion_solve(m, np.ones(64), np.nan)
    # a refused dt leaves the manifold solving as before
    u = np.cos(m.nodes)
    assert np.array_equal(implicit_diffusion_solve(m, u, 1e-3), reference_solve(m, u, 1e-3))


@pytest.mark.parametrize("kind", sorted(_KIND_SPECS))
def test_step_solve_refuses_a_dt_that_is_not_positive(kind):
    # backward heat flow is ill-posed: a dt that is not positive is refused
    # before the matrix is built, so the circle's dt = -h^2/2, where the
    # corner update would divide by A[0, 0] = 0, warns nothing (the suite
    # makes a RuntimeWarning an error), and the entry stays as it was
    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, 64)
    u = np.cos(m.nodes)
    implicit_diffusion_solve(m, u, 1e-3)
    cached = m._ops["step"]
    bad = [0.0, -1e-3, -np.inf]
    if kind == "circle":
        bad.append(float(1.0 / m._ops["band"][2][1, 0]))  # -h^2/2: 1 - dt * L[0, 0] = 0
    for dt in bad:
        with pytest.raises(ValueError, match=f"^dt must be positive, got {re.escape(repr(dt))}$"):
            implicit_diffusion_solve(m, u, dt)
        assert m._ops["step"] is cached


def test_step_solve_keeps_one_factor():
    # every kind, one entry whatever the number of dts it has solved at
    for kind, (n, size) in sorted(_KIND_SPECS.items()):
        m = build_manifold(kind, n, size, 200)
        u = np.exp(-m.nodes)
        for dt in np.geomspace(1e-6, 1e-1, 100):
            implicit_diffusion_solve(m, u, float(dt))
        assert [key for key in m._ops if key != "band"] == ["step"], kind
        assert m._ops["step"][0] == 1e-1, kind


def signed_zero_rhs(rng, count):
    # mixed signs over six decades, with about a third of the entries +-0.0
    b = rng.normal(size=count) * 10.0 ** rng.uniform(-3, 3, count)
    zero = rng.random(count) < 0.3
    b[zero] = np.where(rng.random(count) < 0.5, -0.0, 0.0)[zero]
    return b


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    size=st.sampled_from([1.0, 5.0, 20.0]),
    count=st.integers(16, 600),
    log_ratio=st.floats(-3.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_radial_solves_match_the_banded_solve_at_any_pivoting(n, size, count, log_ratio, seed):
    # dt / h^2 from 1e-3, where dgbtrf interchanges no row or one, to 1e5,
    # where it interchanges nearly every row and the permuted factor's band
    # is several times wider: the first solve of a factor and every later
    # one give solve_banded's bits, the sign of a zero included
    m = build_manifold("euclidean_radial", n, size, count)
    rng = np.random.default_rng(seed)
    dt = 10.0**log_ratio * m.spacing**2
    for _ in range(4):
        b = signed_zero_rhs(rng, count)
        x, want = implicit_diffusion_solve(m, b, dt), reference_solve(m, b, dt)
        assert x.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(x), np.signbit(want))


@pytest.mark.parametrize("l, u", [(4, 2), (1, 2), (2, 1), (3, 3), (5, 1)])
def test_permuted_factor_solves_any_band_factor_as_dgbtrs(l, u):
    # I - A for a random band A pivots wherever it likes, so steps that move
    # two rows into one position in turn occur too; each solve of the kept
    # factor gives solve_banded's bits
    from semiheat import geometry

    rng = np.random.default_rng(10 * l + u)
    for count in (16, 57, 300):
        m = build_manifold("euclidean_radial", 3, 20.0, count)
        m._ops["band"] = (l, u, rng.normal(size=(l + u + 1, count)) * 10.0 ** rng.uniform(-2, 2, count))
        solve = geometry._step_solver(m, 1.0)
        for _ in range(3):
            b = signed_zero_rhs(rng, count)
            x, want = solve(b), reference_solve(m, b, 1.0)
            assert x.tobytes() == want.tobytes()


def test_radial_factor_builds_its_permuted_form_from_its_second_solve(monkeypatch):
    # a factor solved once (a new dt on every step, as near blow-up) never
    # builds the permuted form; one solved many times builds it once, on
    # its second solve, and keeps it.  At dt / h^2 = 1e5 the interchanges
    # widen the band of L beyond its 4 subdiagonals
    from semiheat import geometry

    builder = geometry._permuted_factor
    built = []

    def counted(lu, ipiv, l, u):
        built.append(builder(lu, ipiv, l, u))
        return built[-1]

    monkeypatch.setattr(geometry, "_permuted_factor", counted)
    m = build_manifold("euclidean_radial", 3, 20.0, 400)
    rng = np.random.default_rng(26)
    for dt in np.geomspace(1e-4, 1.0, 30):
        b = signed_zero_rhs(rng, 400)
        assert implicit_diffusion_solve(m, b, float(dt)).tobytes() == reference_solve(m, b, float(dt)).tobytes()
    assert built == []
    dt = 1e5 * m.spacing**2
    for solves in range(1, 8):
        b = signed_zero_rhs(rng, 400)
        assert implicit_diffusion_solve(m, b, dt).tobytes() == reference_solve(m, b, dt).tobytes()
        assert len(built) == (solves >= 2)
    perm, lower, upper = built[0]
    assert sorted(perm) == list(range(400)) and not np.array_equal(perm, np.arange(400))
    assert lower.shape[0] > 5 and lower.flags.f_contiguous and upper.shape == (7, 400)
    implicit_diffusion_solve(m, b, 2 * dt)
    assert len(built) == 1


def test_radial_solve_lets_go_of_dgbtrfs_factor_once_it_is_permuted(monkeypatch):
    # the permuted form copies all a later solve reads, so the kept solve
    # holds dgbtrf's band factor and pivots only until its second solve
    from semiheat import geometry

    factored = []
    dgbtrf = geometry._lapack.dgbtrf

    def watched(*args, **kwargs):
        lu, ipiv, info = dgbtrf(*args, **kwargs)
        factored.append((weakref.ref(lu), weakref.ref(ipiv)))
        return lu, ipiv, info

    monkeypatch.setattr(geometry._lapack, "dgbtrf", watched)
    m = build_manifold("euclidean_radial", 3, 20.0, 400)
    b = np.cos(m.nodes)
    dt = 1e3 * m.spacing**2
    first = implicit_diffusion_solve(m, b, dt)
    assert len(factored) == 1 and all(ref() is not None for ref in factored[0])
    assert implicit_diffusion_solve(m, b, dt).tobytes() == first.tobytes()
    assert [ref() for ref in factored[0]] == [None, None]
    assert implicit_diffusion_solve(m, b, dt).tobytes() == first.tobytes()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["circle", "sphere_zonal"]),
    count=st.integers(16, 700),
    log_dt=st.floats(-9.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_second_and_cached_solves_agree(kind, count, log_dt, seed):
    # the first solve at a dt builds the kept matrix, the second and third
    # solve with it again: one set of bits, the plain banded solve's, for
    # mixed-sign right-hand sides
    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, count)
    rng = np.random.default_rng(seed)
    dt = 10.0**log_dt
    u = rng.normal(size=count) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-2, 2)
    want = reference_solve(m, u, dt)
    got = [implicit_diffusion_solve(m, u, dt) for _ in range(3)]
    for x in got:
        assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(_KIND_SPECS))
def test_step_solve_keeps_one_entry_per_dt(kind, monkeypatch):
    # one (dt, solve) entry: a second solve at its dt reuses it without
    # building the matrix again, and a new dt replaces it
    from semiheat import geometry

    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, 64)
    u = np.cos(m.nodes)
    step_matrix = geometry._step_matrix
    built = []

    def counted(m, dt):
        built.append(dt)
        return step_matrix(m, dt)

    monkeypatch.setattr(geometry, "_step_matrix", counted)
    entries = []
    for dt in (1e-3, 1e-3, 1e-3, 2e-3, 1e-3):
        implicit_diffusion_solve(m, u, dt)
        assert [key for key in m._ops if key != "band"] == ["step"]
        entries.append(m._ops["step"])
    assert built == [1e-3, 2e-3, 1e-3]
    assert [cached_dt for cached_dt, _ in entries] == [1e-3, 1e-3, 1e-3, 2e-3, 1e-3]
    assert entries[0] is entries[1] is entries[2]
    assert entries[3] is not entries[2] and entries[4] is not entries[3]
    assert all(callable(solve) for _, solve in entries)


@pytest.mark.parametrize("kind", ["circle", "sphere_zonal"])
def test_step_solve_refuses_singular_and_non_finite_matrices(kind):
    # a band whose second column of I - dt * L is zero at dt = 1: the
    # solve raises LinAlgError, a non-finite band entry is a ValueError, and
    # a refused dt leaves the entry as it was
    from semiheat import geometry

    n, size = _KIND_SPECS[kind]
    m = build_manifold(kind, n, size, 32)
    u = np.cos(m.nodes)
    implicit_diffusion_solve(m, u, 1e-3)
    l, u_band, ab = m._ops["band"]
    singular = ab.copy()
    singular[0, 1], singular[1, 1], singular[2, 1] = 0.0, 1.0, 0.0  # A[0, 1] = A[1, 1] = A[2, 1] = 0
    m._ops["band"] = (l, u_band, singular)
    with pytest.raises(np.linalg.LinAlgError):
        implicit_diffusion_solve(m, u, 1.0)
    assert m._ops["step"][0] == 1e-3
    with pytest.raises(np.linalg.LinAlgError):
        geometry._step_solver(m, 1.0)(u)
    assert m._ops["step"][0] == 1e-3
    broken = ab.copy()
    broken[1, 5] = np.nan
    m._ops["band"] = (l, u_band, broken)
    with pytest.raises(ValueError, match="not finite"):
        implicit_diffusion_solve(m, u, 2e-3)
    with pytest.raises(ValueError, match="not finite"):
        geometry._step_solver(m, 2e-3)
    assert m._ops["step"][0] == 1e-3
