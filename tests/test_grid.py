import numpy as np
import pytest

from repro.config import reduced_inner_domain
from repro.grid import Grid, periodic_shift


@pytest.fixture(scope="module")
def grid():
    return Grid(reduced_inner_domain(nx=16, nz=10))


class TestGridGeometry:
    def test_shapes(self, grid):
        assert grid.shape == (10, 16, 16)
        assert grid.shape_w == (11, 16, 16)

    def test_vertical_levels_cover_domain(self, grid):
        assert grid.z_f[0] == 0.0
        assert grid.z_f[-1] == pytest.approx(16400.0)
        assert np.all(np.diff(grid.z_c) > 0)

    def test_face_center_consistency(self, grid):
        assert np.allclose(grid.z_c, 0.5 * (grid.z_f[1:] + grid.z_f[:-1]))

    def test_zeros_dtype_and_shape(self, grid):
        assert grid.zeros().shape == grid.shape
        assert grid.zeros(face="z").shape == grid.shape_w
        assert grid.zeros().dtype == grid.dtype

    def test_zeros_rejects_bad_face(self, grid):
        with pytest.raises(ValueError):
            grid.zeros(face="q")

    def test_column_index_roundtrip(self, grid):
        j, i = grid.column_index(grid.x_c[5], grid.y_c[7])
        assert (j, i) == (7, 5)

    def test_column_index_clipped(self, grid):
        assert grid.column_index(-1e9, 1e9) == (15, 0)

    def test_level_index(self, grid):
        assert grid.level_index(0.0) == 0
        assert grid.level_index(1e9) == grid.nz - 1
        k = grid.level_index(grid.z_c[4])
        assert k == 4

    def test_horizontal_distance_center(self, grid):
        d = grid.horizontal_distance(64000.0, 64000.0)
        assert d.shape == (16, 16)
        # nearest column centers are within one cell diagonal
        assert d.min() < np.hypot(grid.dx, grid.dy)


class TestDifferenceOperators:
    def test_ddx_linear_field(self, grid):
        # periodic stencil is exact for sin waves
        k = 2 * np.pi / grid.domain.extent_x
        f = np.sin(k * grid.x_c)[None, None, :] * np.ones(grid.shape)
        df = grid.ddx_c(f)
        expected = k * np.cos(k * grid.x_c)
        # 2nd-order centered: modified wavenumber sin(k dx)/dx
        keff = np.sin(k * grid.dx) / grid.dx
        assert np.allclose(df[0, 0], keff / k * expected, rtol=1e-4, atol=1e-8)

    def test_ddy_matches_ddx_by_symmetry(self, grid):
        rng = np.random.default_rng(0)
        f = rng.normal(size=grid.shape)
        fx = grid.ddx_c(f)
        fy = grid.ddy_c(np.swapaxes(f, 1, 2))
        assert np.allclose(np.swapaxes(fx, 1, 2), fy)

    def test_ddz_linear_profile_exact(self, grid):
        f = (2.0 * grid.z_c)[:, None, None] * np.ones(grid.shape)
        df = grid.ddz_c(f)
        assert np.allclose(df, 2.0, rtol=1e-5)

    def test_laplacian_of_constant_is_zero(self, grid):
        f = np.full(grid.shape, 7.0)
        assert np.allclose(grid.laplacian_h(f), 0.0)

    def test_laplacian_negative_at_maximum(self, grid):
        f = np.zeros(grid.shape)
        f[5, 8, 8] = 1.0
        lap = grid.laplacian_h(f)
        assert lap[5, 8, 8] < 0
        assert lap[5, 8, 7] > 0


class TestPeriodicShift:
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("shift", [1, -1, 2, -2])
    def test_equals_np_roll(self, shift, axis, lead):
        # extent 3 in both horizontal axes: |shift| = 2 wraps most of it
        a = np.random.default_rng(0).normal(size=lead + (4, 3, 3))
        out = periodic_shift(a, shift, axis)
        assert np.array_equal(out, np.roll(a, shift, axis=axis))
        assert out.dtype == a.dtype and not np.shares_memory(out, a)

    def test_rejects_the_vertical_axis(self):
        with pytest.raises(ValueError):
            periodic_shift(np.zeros((4, 3, 3)), 1, -3)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_difference_operators_equal_their_roll_spelling(self, grid, lead):
        f = np.random.default_rng(1).normal(size=lead + grid.shape)
        xm, xp = np.roll(f, 1, axis=-1), np.roll(f, -1, axis=-1)
        ym, yp = np.roll(f, 1, axis=-2), np.roll(f, -1, axis=-2)
        assert np.array_equal(grid.ddx_c(f), (xp - xm) / (2.0 * grid.dx))
        assert np.array_equal(grid.ddy_c(f), (yp - ym) / (2.0 * grid.dy))
        lap = (xp - 2.0 * f + xm) / grid.dx**2 + (yp - 2.0 * f + ym) / grid.dy**2
        assert np.array_equal(grid.laplacian_h(f), lap)
