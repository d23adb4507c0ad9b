import numpy as np
import pytest

from repro.config import reduced_inner_domain
from repro.grid import Grid
from repro.model.advection import (
    face_value_x,
    face_value_y,
    flux_divergence,
    mass_divergence,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(reduced_inner_domain(nx=16, nz=8), dtype=np.float64)


def uniform_flow(grid, u=5.0):
    shape = grid.shape
    rhou = np.full(shape, u)
    rhov = np.zeros(shape)
    rhow = np.zeros(grid.shape_w)
    return rhou, rhov, rhow


class TestFaceValues:
    def test_ud1_picks_upwind_side(self, grid):
        s = np.arange(16.0)[None, None, :] * np.ones(grid.shape)
        pos = face_value_x(s, np.ones(grid.shape), scheme="ud1")
        assert np.allclose(pos[0, 0, :-1], s[0, 0, :-1])
        neg = face_value_x(s, -np.ones(grid.shape), scheme="ud1")
        assert np.allclose(neg[0, 0, :-1], s[0, 0, 1:])

    def test_ud3_exact_for_constant(self, grid):
        s = np.full(grid.shape, 3.0)
        f = face_value_x(s, np.ones(grid.shape), scheme="ud3")
        assert np.allclose(f, 3.0)

    def test_ud3_exact_for_linear_periodic_interior(self, grid):
        s = np.arange(16.0)[None, None, :] * np.ones(grid.shape)
        f = face_value_x(s, np.ones(grid.shape), scheme="ud3")
        # away from the periodic seam, the face value is i + 1/2
        assert np.allclose(f[0, 0, 2:-2], np.arange(16.0)[2:-2] + 0.5)

    def test_y_direction_by_symmetry(self, grid):
        rng = np.random.default_rng(0)
        s = rng.normal(size=grid.shape)
        u = rng.normal(size=grid.shape)
        fx = face_value_x(s, u)
        fy = face_value_y(np.swapaxes(s, 1, 2), np.swapaxes(u, 1, 2))
        assert np.allclose(fx, np.swapaxes(fy, 1, 2))


class TestFluxDivergence:
    def test_constant_scalar_uniform_flow_no_tendency(self, grid):
        rhou, rhov, rhow = uniform_flow(grid)
        s = np.full(grid.shape, 2.0)
        tend = flux_divergence(grid, rhou, rhov, rhow, s)
        assert np.allclose(tend, 0.0, atol=1e-12)

    def test_conservation_horizontal(self, grid):
        # periodic horizontal: domain integral of the tendency vanishes
        rng = np.random.default_rng(1)
        rhou = rng.normal(size=grid.shape)
        rhov = rng.normal(size=grid.shape)
        rhow = np.zeros(grid.shape_w)
        s = rng.normal(size=grid.shape)
        tend = flux_divergence(grid, rhou, rhov, rhow, s)
        assert abs(np.sum(tend)) < 1e-8 * np.sum(np.abs(tend))

    def test_conservation_vertical(self, grid):
        # rigid lids: column-integrated tendency from vertical flux vanishes
        rng = np.random.default_rng(2)
        rhow = np.zeros(grid.shape_w)
        rhow[1:-1] = rng.normal(size=(grid.nz - 1, grid.ny, grid.nx))
        s = rng.normal(size=grid.shape)
        zeros = np.zeros(grid.shape)
        tend = flux_divergence(grid, zeros, zeros, rhow, s, scheme="ud1")
        col = np.sum(tend * grid.dz[:, None, None], axis=0)
        assert np.allclose(col, 0.0, atol=1e-10)

    def test_upwind_translation_direction(self, grid):
        # a blob in +x flow must gain mass downstream of the peak
        s = np.zeros(grid.shape)
        s[:, :, 5] = 1.0
        rhou, rhov, rhow = uniform_flow(grid, u=1.0)
        tend = flux_divergence(grid, rhou, rhov, rhow, s, scheme="ud1")
        assert np.all(tend[:, :, 6] > 0)
        assert np.all(tend[:, :, 5] < 0)

    def test_ud1_more_diffusive_than_ud3(self, grid):
        k = 4 * 2 * np.pi / grid.domain.extent_x
        s = np.sin(k * grid.x_c)[None, None, :] * np.ones(grid.shape)
        rhou, rhov, rhow = uniform_flow(grid, u=1.0)
        t1 = flux_divergence(grid, rhou, rhov, rhow, s, scheme="ud1")
        t3 = flux_divergence(grid, rhou, rhov, rhow, s, scheme="ud3")
        # damping component = projection of tendency onto -s
        damp1 = -np.sum(t1 * s)
        damp3 = -np.sum(t3 * s)
        assert damp1 > damp3 >= -1e-10


class TestMassDivergence:
    def test_uniform_flow_divergence_free(self, grid):
        rhou, rhov, _ = uniform_flow(grid)
        assert np.allclose(mass_divergence(grid, rhou, rhov), 0.0)

    def test_convergence_sign(self, grid):
        rhou = np.zeros(grid.shape)
        rhou[:, :, :8] = 1.0  # flow stops at i=8: convergence there
        div = mass_divergence(grid, rhou, np.zeros(grid.shape))
        assert np.all(div[:, :, 8] < 0)  # mass piles up -> negative divergence


def _roll_face_value(s, flux, axis, scheme):
    """The horizontal face values as they were spelled with ``np.roll``."""
    sp1 = np.roll(s, -1, axis=axis)
    if scheme == "ud1":
        return np.where(flux >= 0.0, s, sp1)
    sm1 = np.roll(s, 1, axis=axis)
    sp2 = np.roll(s, -2, axis=axis)
    centered = (7.0 * (s + sp1) - (sm1 + sp2)) / 12.0
    upwind = (3.0 * (sp1 - s) - (sp2 - sm1)) / 12.0
    return centered - np.sign(flux) * upwind


class TestAgainstRollSpelling:
    """``periodic_shift`` replaced ``np.roll`` in the stencils: same bits."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("scheme", ["ud1", "ud3"])
    def test_flux_divergence(self, grid, scheme, lead):
        rng = np.random.default_rng(3)
        rhou, rhov, s = (rng.normal(size=lead + grid.shape) for _ in range(3))
        fx = rhou * _roll_face_value(s, rhou, -1, scheme)
        fy = rhov * _roll_face_value(s, rhov, -2, scheme)
        want = -(fx - np.roll(fx, 1, axis=-1)) / grid.dx
        want -= (fy - np.roll(fy, 1, axis=-2)) / grid.dy
        # no vertical mass flux: the vertical term subtracts exact zeros
        rhow = np.zeros(lead + grid.shape_w)
        got = flux_divergence(grid, rhou, rhov, rhow, s, scheme=scheme)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_mass_divergence(self, grid, lead):
        rng = np.random.default_rng(4)
        rhou, rhov = (rng.normal(size=lead + grid.shape) for _ in range(2))
        want = (rhou - np.roll(rhou, 1, axis=-1)) / grid.dx
        want += (rhov - np.roll(rhov, 1, axis=-2)) / grid.dy
        assert np.array_equal(mass_divergence(grid, rhou, rhov), want)
