"""MP-PAWR simulator: forward operators, scan geometry, file format."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import RadarConfig
from repro.constants import DBZ_NO_RAIN
from repro.radar import (
    PAWRSimulator,
    ScanGeometry,
    decode_volume,
    encode_volume,
    reflectivity_dbz,
    reflectivity_factor,
    volume_to_grid,
)
from repro.radar.blockage import blockage_mask, grid_observation_mask, range_mask
from repro.radar.doppler import fall_speed_weighted, radial_velocity, unit_vectors
from repro.radar.fileformat import volume_nbytes
from repro.radar.pawr import TrilinearPlan, trilinear_sample

from .oracles import pawr_reference


class TestReflectivity:
    def test_zero_hydrometeors_floor(self):
        dbz = reflectivity_dbz(reflectivity_factor(np.array(1.0), np.array(0.0)))
        assert dbz == DBZ_NO_RAIN

    def test_monotone_in_rain(self):
        dens = np.ones(4)
        qr = np.array([1e-5, 1e-4, 1e-3, 1e-2])
        dbz = reflectivity_dbz(reflectivity_factor(dens, qr))
        assert np.all(np.diff(dbz) > 0)

    def test_one_gram_per_kg_heavy_rain(self):
        # ~1 g/kg rain should read as heavy rain (>40 dBZ), the paper's
        # orange-shade regime in Fig. 6a
        dbz = reflectivity_dbz(reflectivity_factor(np.array(1.1), np.array(1e-3)))
        assert 35.0 < dbz < 60.0

    def test_species_additive(self):
        dens = np.ones(1)
        q = np.full(1, 5e-4)
        z_r = reflectivity_factor(dens, q)
        z_all = reflectivity_factor(dens, q, q, q)
        assert z_all > z_r

    def test_dbz_from_state(self, developed_nature):
        from repro.radar.reflectivity import dbz_from_state

        dbz = dbz_from_state(developed_nature)
        assert dbz.shape == developed_nature.grid.shape
        assert dbz.max() > 10.0  # convection produced echoes


class TestDoppler:
    def test_fall_speed_zero_without_rain(self):
        v = fall_speed_weighted(np.ones(3), np.zeros(3))
        assert np.allclose(v, 0.0)

    def test_unit_vectors_normalized(self):
        r = RadarConfig()
        ex, ey, ez, dist = unit_vectors(
            np.array([70000.0]), np.array([64000.0]), np.array([5000.0]), r
        )
        assert np.hypot(np.hypot(ex, ey), ez)[0] == pytest.approx(1.0, rel=1e-6)

    def test_radial_velocity_projection(self):
        # pure eastward wind observed due east: vr = +u
        vr = radial_velocity(
            np.array(10.0), np.array(0.0), np.array(0.0), np.array(0.0),
            np.array(1.0), np.array(0.0), np.array(0.0),
        )
        assert vr == pytest.approx(10.0)

    def test_falling_rain_gives_negative_vr_overhead(self):
        # directly above the radar (ez=1), falling rain (vt>0) -> vr < 0
        vr = radial_velocity(
            np.array(0.0), np.array(0.0), np.array(0.0), np.array(5.0),
            np.array(0.0), np.array(0.0), np.array(1.0),
        )
        assert vr == pytest.approx(-5.0)


class TestScanGeometry:
    @pytest.fixture(scope="class")
    def geom(self, small_radar_config):
        return ScanGeometry(small_radar_config)

    def test_shapes(self, geom, small_radar_config):
        r = small_radar_config
        assert geom.shape == (r.n_elevations, r.n_azimuths, r.n_gates)
        x, y, z = geom.sample_points()
        assert x.shape == geom.shape

    def test_elevations_dense_at_low_angles(self, geom):
        el = geom.elevations
        assert np.all(np.diff(el) > 0)
        # quadratic-type spacing: first gap smaller than last
        assert el[1] - el[0] < el[-1] - el[-2]

    def test_full_azimuth_coverage(self, geom):
        az = geom.azimuths
        assert az[0] < 0.2
        assert az[-1] > 2 * np.pi - 0.2

    def test_heights_increase_with_elevation(self, geom):
        _, _, z = geom.sample_points()
        # at the farthest gate, higher elevation = higher sample
        assert np.all(np.diff(z[:, 0, -1]) > 0)

    def test_beam_curvature_positive(self, geom, small_radar_config):
        # 4/3-earth: even at 0-ish elevation the far gate sits above site
        _, _, z = geom.sample_points()
        assert z[0, 0, -1] > small_radar_config.site_z


class TestMasks:
    def test_range_mask(self, small_radar_config):
        geom = ScanGeometry(small_radar_config)
        m = range_mask(geom)
        assert m.shape == geom.shape
        # the reduced config spans exactly the max range
        assert m.all()

    def test_blockage_hits_only_low_elevations(self, small_radar_config):
        geom = ScanGeometry(small_radar_config)
        m = blockage_mask(geom, seed=7)
        n_low = max(1, small_radar_config.n_elevations // 4)
        assert m[n_low:].all()
        assert not m[:n_low].all()

    def test_grid_mask_excludes_far_corners(self, small_grid, small_radar_config):
        m = grid_observation_mask(small_grid, small_radar_config)
        # corners of the 128-km domain are ~90 km from the center: outside
        assert not m[0, 0, 0]
        # directly near the radar at low levels: inside
        j, i = small_grid.column_index(64000.0, 64000.0)
        assert m[1, j, i + 1]


class TestTrilinear:
    def test_exact_at_cell_centers(self, small_grid):
        rng = np.random.default_rng(0)
        f = rng.normal(size=small_grid.shape)
        k, j, i = 3, 5, 7
        v = trilinear_sample(
            small_grid,
            f,
            np.array([small_grid.x_c[i]]),
            np.array([small_grid.y_c[j]]),
            np.array([small_grid.z_c[k]]),
        )
        assert v[0] == pytest.approx(f[k, j, i], rel=1e-6)

    def test_linear_field_exact(self, small_grid):
        Z, Y, X = small_grid.meshgrid()
        f = 2.0 * X + 3.0 * Y + 0.5 * Z
        xs = np.array([30000.0, 70000.0])
        ys = np.array([40000.0, 80000.0])
        zs = np.array([5000.0, 9000.0])
        v = trilinear_sample(small_grid, f, xs, ys, zs)
        assert np.allclose(v, 2 * xs + 3 * ys + 0.5 * zs, rtol=1e-6)

    def test_outside_domain_fill(self, small_grid):
        f = np.ones(small_grid.shape)
        v = trilinear_sample(small_grid, f, np.array([-5000.0]), np.array([0.0]), np.array([100.0]), fill=-1.0)
        assert v[0] == -1.0

    def test_foreign_grid_field_rejected(self, small_grid):
        # the plan gathers through flat indices: a field of another shape
        # would be read at the wrong cells without an error
        x = np.array([30000.0]), np.array([40000.0]), np.array([5000.0])
        plan = TrilinearPlan(small_grid, *x)
        nz, ny, nx = small_grid.shape
        for shape in [(nz + 1, ny, nx), (nz, ny, nx + 2), (nz * ny * nx,)]:
            with pytest.raises(ValueError, match="shape") as err:
                plan.sample(np.zeros(shape))
            assert str(shape) in str(err.value) and str(small_grid.shape) in str(err.value)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFrozenScanReference:
    """`TrilinearPlan` against the pre-plan code in `tests/oracles`, byte for byte."""

    @pytest.fixture(scope="class", params=["float32", "float64"])
    def nature(self, request, small_scale_config):
        from repro.model import ScaleRM, convective_sounding, warm_bubble

        m = ScaleRM(replace(small_scale_config, dtype=request.param), convective_sounding(cape_factor=1.1))
        st = m.initial_state()
        warm_bubble(st, x0=40000, y0=40000, amplitude=5.0, moisture_boost=0.3)
        warm_bubble(st, x0=85000, y0=90000, amplitude=4.0, moisture_boost=0.3)
        st = m.integrate(st, 2100.0)
        assert st.fields["momx"].dtype == request.param
        assert st.fields["qr"].max() > 0.0  # the attenuation branch has rain to act on
        return m.grid, st

    @pytest.mark.parametrize("physics", ["plain", "attenuated+kdp", "attenuated-kdp"])
    @pytest.mark.parametrize("max_range", [None, 40_000.0])
    @pytest.mark.parametrize("shape", [(4, 12, 20), (8, 36, 60), (24, 120, 240)])
    def test_scans_byte_identical(self, nature, shape, max_range, physics):
        grid, state = nature
        radar = RadarConfig()
        if max_range is not None:
            radar = replace(radar, max_range=max_range)
        radar = radar.reduced(*shape)
        kw = dict(attenuation=physics != "plain", kdp_correction=physics != "attenuated-kdp")
        for seed in (3, 11):
            new = PAWRSimulator(radar, grid, seed=seed, **kw)
            old = pawr_reference.PAWRSimulator(radar, grid, seed=seed, **kw)
            # consecutive scans: the second and third only agree if the
            # first left the noise generator at the same position
            for n in range(3):
                a, b = new.scan(state, 30.0 * n), old.scan(state, 30.0 * n)
                assert _same_bytes(a.dbz, b.dbz)
                assert _same_bytes(a.doppler, b.doppler)
                assert _same_bytes(a.valid, b.valid)
            assert a.n_valid > 0

    @pytest.mark.parametrize("point_shape", [(257,), (5, 6, 7)])
    @pytest.mark.parametrize("fill", [np.nan, -7.5])
    def test_wrapper_matches_reference_on_scattered_points(self, small_grid, point_shape, fill):
        rng = np.random.default_rng(5)
        d = small_grid.domain
        # a fifth of the points fall outside the domain on some axis
        x = rng.uniform(-0.1 * d.nx * d.dx, 1.1 * d.nx * d.dx, point_shape)
        y = rng.uniform(-0.1 * d.ny * d.dy, 1.1 * d.ny * d.dy, point_shape)
        z = rng.uniform(-0.1 * d.ztop, 1.1 * d.ztop, point_shape)
        for dtype in (np.float32, np.float64):
            f = rng.normal(size=small_grid.shape).astype(dtype)
            got = trilinear_sample(small_grid, f, x, y, z, fill=fill)
            want = pawr_reference.trilinear_sample(small_grid, f, x, y, z, fill=fill)
            assert _same_bytes(got, want)
        outside = np.isnan(want) if np.isnan(fill) else want == fill
        assert 0 < outside.sum() < outside.size


class TestScanPlan:
    def test_scan_builds_no_plan(self, small_grid, small_radar_config, developed_nature, monkeypatch):
        built = []
        init = TrilinearPlan.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrilinearPlan, "__init__", counting_init)
        pawr = PAWRSimulator(small_radar_config, small_grid, seed=1, attenuation=True)
        assert len(built) == 1
        for n in range(5):
            pawr.scan(developed_nature, t_obs=30.0 * n)
        assert len(built) == 1

    def test_plan_memory_bounded(self, small_grid, small_radar_config):
        pawr = PAWRSimulator(small_radar_config, small_grid, seed=1)
        held = {id(a): a.nbytes for a in vars(pawr._plan).values() if isinstance(a, np.ndarray)}
        assert sum(held.values()) <= 12 * 8 * pawr.geometry.n_samples


class TestVolumeScan:
    def test_scan_roundtrip_through_fileformat(self, small_grid, small_radar_config, developed_nature):
        pawr = PAWRSimulator(small_radar_config, small_grid, seed=1)
        scan = pawr.scan(developed_nature, t_obs=123.0)
        raw = scan.encode(t_created=130.0)
        dec = decode_volume(raw)
        assert dec["t_obs"] == 123.0
        assert dec["t_created"] == 130.0
        assert dec["dbz"].shape == scan.dbz.shape
        # float16 quantization bound
        assert np.allclose(dec["dbz"], scan.dbz, atol=0.1)
        assert np.array_equal(dec["valid"], scan.valid)

    def test_volume_size_formula(self, small_radar_config):
        r = small_radar_config
        shape = (r.n_elevations, r.n_azimuths, r.n_gates)
        dbz = np.zeros(shape, np.float32)
        raw = encode_volume(dbz, np.ones(shape, bool), dbz, 0.0, 0.0)
        assert len(raw) == volume_nbytes(shape)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_volume(b"NOTRADAR" + b"\x00" * 100)

    def test_scan_sees_the_storm(self, small_grid, small_radar_config, developed_nature):
        pawr = PAWRSimulator(small_radar_config, small_grid, seed=1)
        scan = pawr.scan(developed_nature, t_obs=0.0)
        assert scan.dbz[scan.valid].max() > 10.0

    def test_noise_statistics(self, small_grid, small_radar_config, model):
        # a no-rain state: dbz samples = floor + noise with sigma ~ config
        pawr = PAWRSimulator(small_radar_config, small_grid, seed=2)
        scan = pawr.scan(model.initial_state(), t_obs=0.0)
        vals = scan.dbz[scan.valid]
        # floored normal noise: std below the nominal 1 dBZ but nonzero
        assert 0.1 < vals.std() < 1.5


class TestRegrid:
    def test_volume_to_grid(self, small_grid, small_radar_config, developed_nature):
        from repro.config import LETKFConfig

        pawr = PAWRSimulator(small_radar_config, small_grid, seed=1)
        scan = pawr.scan(developed_nature, t_obs=0.0)
        refl, dopp = volume_to_grid(scan, small_grid, LETKFConfig(ensemble_size=8))
        assert refl.kind == "reflectivity"
        assert dopp.kind == "doppler"
        assert refl.error_std == 5.0  # Table 2
        assert dopp.error_std == 3.0
        assert refl.n_valid > 0
        # gridded reflectivity tracks the truth pattern (per-cell values
        # carry large representativeness error on the very coarse test
        # mesh, so test correlation, not pointwise agreement)
        from repro.radar.reflectivity import dbz_from_state

        truth = dbz_from_state(developed_nature)
        sel = refl.valid
        corr = np.corrcoef(refl.values[sel], truth[sel])[0, 1]
        assert corr > 0.5
