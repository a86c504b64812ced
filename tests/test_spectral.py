"""Spectral derivative operators and elliptic solves on the torus."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import sample
from shlab.errors import SolvabilityError
from shlab.fields import TorusGrid
from shlab.spectral import (
    MEAN_TOL,
    div_traceless_values,
    div_values,
    grad_values,
    helmholtz_decompose,
    korn_solve_values,
    laplacian_values,
    poisson_solve_values,
)

TWO_PI = 2.0 * np.pi


def band_limited(rng, n, kmax=None):
    """Random real field with no content at or above the Nyquist band."""
    kmax = kmax if kmax is not None else n // 4
    fh = np.zeros((n, n), dtype=complex)
    fh[:kmax, :kmax] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    fh[-kmax:, :kmax] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    fh[:kmax, -kmax:] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    fh[-kmax:, -kmax:] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal((kmax, kmax))
    return np.fft.ifft2(fh).real


def korn_poisson_then_gradient(rhs):
    """Reference Korn solve in two passes: the vector Poisson solve for m, then
    the spectral gradient of m assembled into M = (d1 m1 - d2 m2, d1 m2 + d2 m1)."""
    m = -poisson_solve_values(rhs)
    g = grad_values(m)  # (..., component, derivative, nx, ny)
    M = np.stack(
        [g[..., 0, 0, :, :] - g[..., 1, 1, :, :], g[..., 1, 0, :, :] + g[..., 0, 1, :, :]],
        axis=-3,
    )
    return m, M


class TestDerivatives:
    def test_grad_of_sine(self, grid64):
        f = sample(grid64, lambda x1, x2: np.sin(TWO_PI * x1))
        g = grad_values(f)
        expected = sample(grid64, lambda x1, x2: TWO_PI * np.cos(TWO_PI * x1))
        np.testing.assert_allclose(g[0], expected, atol=1e-12)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-12)

    def test_div_of_constant(self, grid64):
        q = np.ones((2, 64, 64))
        np.testing.assert_allclose(div_values(q), 0.0, atol=1e-13)

    def test_laplacian_eigenfunction(self, grid64):
        f = sample(grid64, lambda x1, x2: np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2))
        np.testing.assert_allclose(laplacian_values(f), -2.0 * TWO_PI**2 * f, atol=1e-10)

    def test_grad_then_div_is_laplacian(self, grid64, rng):
        # band-limited input: odd derivatives zero the Nyquist mode by design,
        # so the identity only holds below it
        f = band_limited(rng, 64)
        np.testing.assert_allclose(
            div_values(grad_values(f)), laplacian_values(f), atol=1e-8 * np.abs(f).max()
        )

    def test_wrapper_types(self, grid64):
        f = sample(grid64, lambda x1, x2: np.cos(TWO_PI * x2))
        # the arrays carry the grid in their (2, nx, ny) and (nx, ny) shapes
        g = grad_values(f)
        d = div_values(g)
        assert g.shape == (2, *grid64.shape) and d.shape == grid64.shape
        np.testing.assert_allclose(d, laplacian_values(f), atol=1e-9)


class TestPoisson:
    def test_eigenfunction(self, grid64):
        rhs = sample(grid64, lambda x1, x2: 2.0 * TWO_PI**2 * np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2))
        psi = poisson_solve_values(rhs)
        expected = sample(grid64, lambda x1, x2: np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2))
        np.testing.assert_allclose(psi, expected, atol=1e-10)

    def test_zero_rhs(self, grid64):
        assert not np.any(poisson_solve_values(np.zeros(grid64.shape)))

    def test_constant_rhs_unsolvable(self, grid64):
        with pytest.raises(SolvabilityError):
            poisson_solve_values(np.ones(grid64.shape))

    def test_small_mean_is_corrected(self, grid64):
        rhs = sample(grid64, lambda x1, x2: np.sin(TWO_PI * x1)) + 1e-13
        psi = poisson_solve_values(rhs)
        assert abs(psi.mean()) < 1e-12
        np.testing.assert_allclose(
            -laplacian_values(psi), rhs - rhs.mean(), atol=1e-10
        )

    def test_residual_on_random_band_limited(self, grid64, rng):
        # manufactured solution: solve then apply -Lap and compare
        rhs = rng.standard_normal((64, 64))
        rhs -= rhs.mean()
        psi = poisson_solve_values(rhs)
        np.testing.assert_allclose(-laplacian_values(psi), rhs, atol=1e-9 * np.abs(rhs).max())


class TestHelmholtz:
    def test_pure_divergence_free(self, grid64):
        q = np.stack([sample(grid64, lambda x1, x2: np.sin(TWO_PI * x2)), np.zeros(grid64.shape)])
        parts = helmholtz_decompose(q)
        np.testing.assert_allclose(parts.v, q, atol=1e-12)
        np.testing.assert_allclose(parts.Vmean, 0.0, atol=1e-14)
        np.testing.assert_allclose(parts.psi, 0.0, atol=1e-12)

    def test_pure_gradient(self, grid64):
        gx = sample(grid64, lambda x1, x2: -TWO_PI * np.sin(TWO_PI * x1))
        parts = helmholtz_decompose(np.stack([gx, np.zeros(grid64.shape)]))
        np.testing.assert_allclose(parts.v, 0.0, atol=1e-10)
        expected = sample(grid64, lambda x1, x2: np.cos(TWO_PI * x1))
        np.testing.assert_allclose(parts.psi, expected, atol=1e-10)

    def test_pure_mean(self, grid64):
        q = np.stack([np.full(grid64.shape, 1.0), np.full(grid64.shape, 2.0)])
        parts = helmholtz_decompose(q)
        np.testing.assert_allclose(parts.Vmean, [1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(parts.v, 0.0, atol=1e-12)
        np.testing.assert_allclose(parts.psi, 0.0, atol=1e-12)

    def test_reconstruction_and_orthogonality(self, grid64, rng):
        q = np.stack([band_limited(rng, 64), band_limited(rng, 64)])
        parts = helmholtz_decompose(q)
        recon = parts.v + parts.Vmean[:, None, None] + grad_values(parts.psi)
        np.testing.assert_allclose(recon, q, atol=1e-10)
        assert np.abs(div_values(parts.v)).max() < 1e-8
        assert abs(parts.v.mean(axis=(1, 2))).max() < 1e-12
        assert abs(parts.psi.mean()) < 1e-12


class TestKorn:
    def test_zero_rhs(self, grid64):
        assert not np.any(korn_solve_values(np.zeros((2, *grid64.shape))))

    def test_forward_inverse_round_trip(self, grid64):
        m_star = sample(
            grid64, lambda x1, x2: np.sin(TWO_PI * x2), lambda x1, x2: np.cos(TWO_PI * x1)
        )
        # forward operator div(grad m + grad^T m - div m I) via spectral ops
        g1 = grad_values(m_star[0])
        g2 = grad_values(m_star[1])
        ps = np.stack([g1[0] - g2[1], g1[1] + g2[0]])
        rhs = div_traceless_values(ps)
        np.testing.assert_allclose(korn_solve_values(rhs), ps, atol=1e-9)
        # m = -(vector Poisson solve of rhs), the field whose symmetric gradient M is
        m, _ = korn_poisson_then_gradient(rhs)
        np.testing.assert_allclose(m, m_star, atol=1e-9)

    def test_constant_rhs_unsolvable(self, grid64):
        rhs = np.zeros((2, *grid64.shape))
        rhs[0] = 1.0
        with pytest.raises(SolvabilityError):
            korn_solve_values(rhs)

    def test_divergence_consistency(self, grid64, rng):
        rhs = np.stack([band_limited(rng, 64), band_limited(rng, 64)])
        rhs -= rhs.mean(axis=(1, 2))[:, None, None]
        M = korn_solve_values(rhs)
        np.testing.assert_allclose(
            div_traceless_values(M), rhs, atol=1e-8 * np.abs(rhs).max()
        )

    @pytest.mark.parametrize("shape", [(2, 32, 32), (2, 24, 8), (3, 2, 16, 40)])
    def test_matches_poisson_then_gradient(self, rng, shape):
        # full spectrum, Nyquist modes included
        rhs = rng.standard_normal(shape)
        rhs -= rhs.mean(axis=(-2, -1), keepdims=True)
        M = korn_solve_values(rhs)
        m_ref, M_ref = korn_poisson_then_gradient(rhs)
        assert M.shape == rhs.shape
        assert np.abs(M - M_ref).max() <= 1e-12 * np.abs(M_ref).max()

    def test_korn_inequality_on_band_limited_fields(self, rng):
        """L2 inequality ||grad m + grad^T m - div m I|| >= (1/2) ||grad m||."""
        grid = TorusGrid(32, 32)
        kmax = 8
        for _ in range(100):
            spec1 = np.zeros((32, 32), dtype=complex)
            spec2 = np.zeros((32, 32), dtype=complex)
            idx = rng.integers(-kmax, kmax + 1, size=(6, 2))
            for k1, k2 in idx:
                spec1[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
                spec2[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
            m = np.stack([np.fft.ifft2(spec1).real, np.fft.ifft2(spec2).real])
            g1 = grad_values(m[0])
            g2 = grad_values(m[1])
            grad_norm = np.sqrt(np.mean(g1[0] ** 2 + g1[1] ** 2 + g2[0] ** 2 + g2[1] ** 2))
            p = g1[0] - g2[1]
            s = g1[1] + g2[0]
            op_norm = np.sqrt(np.mean(2.0 * (p**2 + s**2)))
            if grad_norm == 0.0:
                continue
            assert op_norm >= 0.5 * grad_norm - 1e-12


class TestStacks:
    """Leading stack axes: each slice comes out bitwise as if solved alone."""

    @pytest.fixture
    def stacks(self, rng):
        f = rng.standard_normal((3, 16, 8))
        f -= f.mean(axis=(1, 2), keepdims=True)
        q = rng.standard_normal((3, 2, 16, 8))
        q -= q.mean(axis=(2, 3), keepdims=True)
        return f, q

    @pytest.mark.parametrize(
        "fn,arg",
        [
            (grad_values, 0),
            (laplacian_values, 0),
            (poisson_solve_values, 0),
            (div_values, 1),
            (div_traceless_values, 1),
        ],
    )
    def test_stack_equals_slices(self, stacks, fn, arg):
        x = stacks[arg]
        out = fn(x)
        for k in range(3):
            assert np.array_equal(out[k], fn(x[k]))

    def test_korn_stack_equals_slices(self, stacks):
        _, q = stacks
        M = korn_solve_values(q)
        for k in range(3):
            assert np.array_equal(M[k], korn_solve_values(q[k]))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_slice_with_mean_rejected(self, stacks, k):
        f = stacks[0].copy()
        f[k] += 1e-6
        with pytest.raises(SolvabilityError):
            poisson_solve_values(f)
        poisson_solve_values(np.delete(f, k, axis=0))

    def test_cancelling_slice_means_rejected(self, stacks):
        f = stacks[0].copy()
        f[0] += 1e-6
        f[2] -= 1e-6
        with pytest.raises(SolvabilityError):
            poisson_solve_values(f)


class TestSolvabilityTolerance:
    """Each slice's |mean| is checked against MEAN_TOL max(1, max|slice|); a
    mean that is not finite is rejected, and numpy does not warn."""

    @staticmethod
    def slices(rng, scale, means):
        f = rng.standard_normal((len(means), 16, 8))
        f -= f.mean(axis=(1, 2), keepdims=True)
        f *= scale / np.abs(f).max(axis=(1, 2), keepdims=True)
        return f + np.asarray(means)[:, None, None]

    def test_roundoff_at_scale_is_corrected(self, rng):
        f = self.slices(rng, 1e7, [1e-9, -1e-9])  # above the old absolute 1e-10
        psi = poisson_solve_values(f)
        assert np.abs(psi.mean(axis=(1, 2))).max() < 1e-12
        assert korn_solve_values(f).shape == f.shape

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e7, 1e300])
    def test_mean_of_a_millionth_of_the_scale_rejected(self, rng, scale):
        with pytest.raises(SolvabilityError):
            poisson_solve_values(self.slices(rng, scale, [0.0, 1e-6 * max(scale, 1.0)]))

    def test_cancelling_means_at_scale_rejected(self, rng):
        with pytest.raises(SolvabilityError):
            korn_solve_values(self.slices(rng, 1e7, [10.0, -10.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_slice_that_is_not_finite_rejected(self, rng, bad):
        f = self.slices(rng, 1.0, [0.0, 0.0])
        f[1, 3, 3] = bad
        with pytest.raises(SolvabilityError):
            poisson_solve_values(f)

    def test_sum_past_the_float_range_rejected_without_warning(self):
        with pytest.raises(SolvabilityError):
            poisson_solve_values(np.full((16, 8), 1e308))
        with pytest.raises(SolvabilityError):
            poisson_solve_values(np.where(np.arange(8) < 4, 1.7e308, -1.7e308) * np.ones((16, 1)))

    def test_tolerance_is_relative(self):
        f = np.zeros((16, 8))
        f[0, 0] = 1e7
        f -= 1e7 / f.size  # mean exactly 0, max|f| = 1e7 (1 - 1/128)
        f += 0.9 * MEAN_TOL * np.abs(f).max()
        poisson_solve_values(f)
        with pytest.raises(SolvabilityError):
            poisson_solve_values(f + 0.2 * MEAN_TOL * np.abs(f).max())


SRC = Path(__file__).resolve().parents[1] / "src" / "shlab"


def _layer_violations(path):
    """(function, what) for each numpy.fft use and each private spectral name
    in one module; function is the enclosing top-level def, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy") and node.attr == "fft":
                    found.append((owner, "numpy.fft"))
                if node.value.id == "spectral" and node.attr.startswith("_"):
                    found.append((owner, f"spectral.{node.attr}"))
            elif isinstance(node, ast.Import):
                found += [(owner, a.name) for a in node.names if a.name.startswith("numpy.fft")]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.startswith("numpy.fft") or (
                    module == "numpy" and any(a.name == "fft" for a in node.names)
                ):
                    found.append((owner, "numpy.fft"))
                if module.endswith("spectral"):
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    found += [(owner, f"spectral.{name}") for name in private]
    return found


def test_one_spectral_layer():
    """Only spectral.py transforms, and nothing imports its private names."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "spectral.py":
            continue
        bad += [f"{path.name}:{owner}: {what}" for owner, what in _layer_violations(path)]
    assert not bad, bad


def test_layer_guard_sees_each_form(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text(
        "import numpy.fft\n"
        "from numpy import fft\n"
        "from .spectral import _wavenumbers\n"
        "def f(x):\n"
        "    return np.fft.fft2(x), spectral._wavenumbers(4, 4)\n"
    )
    assert sorted(_layer_violations(p), key=str) == [
        ("f", "numpy.fft"),
        ("f", "spectral._wavenumbers"),
        (None, "numpy.fft"),
        (None, "numpy.fft"),
        (None, "spectral._wavenumbers"),
    ]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _referenced_names(tree, skip=None) -> set[str]:
    """Names that a module's code refers to, outside the top-level statement
    skip: names, attributes, imported names, and the dotted or "module:Class"
    paths in string literals (bench/tracing.py names its hooks so).
    Docstrings do not count."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for top in tree.body:
        if top is skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and re.fullmatch(r"[A-Za-z_][\w.:]*", node.value)
            ):
                found.update(re.split("[.:]", node.value))
    return found


def _unreferenced(modules, readers):
    """Top-level functions and classes of the modules that no module and no
    reader refers to outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*modules, *readers]}
    elsewhere = {path: _referenced_names(tree) for path, tree in trees.items()}
    bad = []
    for path in modules:
        for top in trees[path].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = _referenced_names(trees[path], skip=top)
            others = (names for other, names in elsewhere.items() if other != path)
            if top.name not in own and not any(top.name in names for names in others):
                bad.append(f"{path.name}:{top.name}")
    return sorted(bad)


def test_every_src_function_has_a_caller_outside_the_tests():
    """Each top-level function and class of src/shlab is used by another part
    of the package (not counting the re-exports of __init__.py) or by the
    benchmark under bench/, so no code is kept only for the tests."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert _unreferenced(modules, sorted(BENCH.glob("*.py"))) == []


def test_caller_guard_sees_each_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Module docstring naming only_in_docstring."""\n'
        "def only_in_docstring():\n"
        "    pass\n"
        "def recursive(n):\n"
        '    """recursive calls itself and names by_attribute."""\n'
        "    return recursive(n - 1)\n"
        "class SelfReferenced:\n"
        "    def copy(self) -> 'SelfReferenced':\n"
        "        return SelfReferenced()\n"
        "def by_name():\n"
        "    pass\n"
        "def by_attribute():\n"
        "    pass\n"
        "def by_import():\n"
        "    pass\n"
        "def by_reader_string():\n"
        "    pass\n"
        "def in_a_message():\n"
        "    pass\n"
        "def caller():\n"
        "    by_name()\n"
        "    raise ValueError('in_a_message is named in prose here')\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from .mod import by_import\nimport mod\nmod.by_attribute()\n")
    reader = tmp_path / "reader.py"
    reader.write_text('POINTS = [("pkg.mod:by_reader_string", "__post_init__")]\n')
    assert _unreferenced([mod], [other, reader]) == [
        "mod.py:SelfReferenced",
        "mod.py:caller",
        "mod.py:in_a_message",
        "mod.py:only_in_docstring",
        "mod.py:recursive",
    ]
