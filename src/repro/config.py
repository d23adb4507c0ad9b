"""Configuration dataclasses for the BDA reproduction.

The defaults of :class:`LETKFConfig` and :class:`ScaleConfig` reproduce
Tables 2 and 3 of the paper verbatim; :data:`OPERATIONAL_SYSTEMS`
reproduces Table 1 (the operational-NWP-systems survey that frames the
"two orders of magnitude increase in problem size" claim).

Experiments at reduced scale override the mesh/ensemble knobs but keep
every scientific knob (localization, inflation, QC thresholds, physics
selection) at the paper values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .constants import as_dtype

__all__ = [
    "DomainConfig",
    "ScaleConfig",
    "LETKFConfig",
    "RadarConfig",
    "JITDTConfig",
    "NodeAllocation",
    "WorkflowConfig",
    "ExecutionConfig",
    "OperationalSystem",
    "OPERATIONAL_SYSTEMS",
    "BDA2021_SYSTEM",
    "paper_inner_domain",
    "paper_outer_domain",
    "reduced_inner_domain",
]


# ---------------------------------------------------------------------------
# Model domain (Fig. 3, Table 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainConfig:
    """A limited-area model domain.

    The paper's inner domain is 128 km x 128 km x 16.4 km at a 500 m
    horizontal grid spacing with 60 vertical levels (Table 3); the outer
    domain uses a 1.5 km spacing (Fig. 3).
    """

    name: str
    nx: int
    ny: int
    nz: int
    dx: float  # [m]
    dy: float  # [m]
    ztop: float  # [m]
    #: horizontal halo width used by the virtual-MPI decomposition
    halo: int = 2

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 2:
            raise ValueError("domain needs at least 2 cells in each direction")
        if min(self.dx, self.dy, self.ztop) <= 0:
            raise ValueError("grid spacings must be positive")

    @property
    def dz(self) -> float:
        """Mean vertical grid spacing [m] (levels are uniform by default)."""
        return self.ztop / self.nz

    @property
    def extent_x(self) -> float:
        return self.nx * self.dx

    @property
    def extent_y(self) -> float:
        return self.ny * self.dy

    @property
    def ncells(self) -> int:
        return self.nx * self.ny * self.nz

    def scaled(self, factor: float) -> "DomainConfig":
        """Return a coarser/finer copy keeping the physical extent.

        ``factor`` > 1 coarsens (fewer, wider cells). Used by the reduced
        OSSE experiments that must stay Python-tractable.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        nx = max(4, int(round(self.nx / factor)))
        ny = max(4, int(round(self.ny / factor)))
        return replace(
            self,
            nx=nx,
            ny=ny,
            dx=self.extent_x / nx,
            dy=self.extent_y / ny,
        )


def paper_inner_domain() -> DomainConfig:
    """The paper's inner 500-m domain: 256 x 256 x 60, 128 km x 128 km x 16.4 km."""
    return DomainConfig(name="inner-500m", nx=256, ny=256, nz=60, dx=500.0, dy=500.0, ztop=16400.0)


def paper_outer_domain() -> DomainConfig:
    """The paper's outer 1.5-km domain (Fig. 3a; extent inferred ~ 384 km)."""
    return DomainConfig(name="outer-1.5km", nx=256, ny=256, nz=60, dx=1500.0, dy=1500.0, ztop=16400.0)


def reduced_inner_domain(nx: int = 32, nz: int = 20) -> DomainConfig:
    """A reduced-size inner domain used by tests/benchmarks.

    The physical extent (128 km x 128 km x 16.4 km) is preserved so that
    localization radii, radar ranges etc. keep their paper meaning.
    """
    return DomainConfig(
        name=f"inner-reduced-{nx}",
        nx=nx,
        ny=nx,
        nz=nz,
        dx=128_000.0 / nx,
        dy=128_000.0 / nx,
        ztop=16400.0,
    )


# ---------------------------------------------------------------------------
# SCALE model configuration (Table 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleConfig:
    """SCALE-RM-analog configuration. Defaults reproduce Table 3.

    ``ensemble_size_analysis`` is the 1000-member part <1-2> ensemble;
    ``ensemble_size_forecast`` the 11-member part <2> ensemble.
    """

    domain: DomainConfig = field(default_factory=paper_inner_domain)
    ensemble_size_analysis: int = 1000
    ensemble_size_forecast: int = 11
    dt: float = 0.4  # [s] Table 3 "Time integration step"
    integration_type: str = "HEVI"  # explicit horizontal / implicit vertical
    microphysics: str = "tomita08-sm6"  # single-moment 6-category [37]
    radiation: str = "mstrnX-gray"  # TRaNsfer code X analog [38]
    surface_flux: str = "beljaars"  # [39]
    boundary_layer: str = "mynn2.5"  # [40]
    turbulence: str = "smagorinsky"  # [41]
    #: floating-point policy — the paper converted SCALE to single precision
    dtype: str = "float32"
    #: Rayleigh sponge depth near the model top [m]
    sponge_depth: float = 3000.0
    #: divergence damping coefficient (nondimensional) for acoustic noise
    divergence_damping: float = 0.05

    def numpy_dtype(self) -> np.dtype:
        return as_dtype(self.dtype)

    def physics_schemes(self) -> dict[str, str]:
        """Physics parameterizations exactly as listed in Table 3."""
        return {
            "cloud_microphysics": self.microphysics,
            "radiation": self.radiation,
            "surface_flux": self.surface_flux,
            "boundary_layer": self.boundary_layer,
            "turbulence": self.turbulence,
        }

    def reduced(self, nx: int = 32, nz: int = 20, members: int = 20) -> "ScaleConfig":
        """A test-scale copy: smaller mesh + ensemble, identical physics."""
        dom = reduced_inner_domain(nx=nx, nz=nz)
        # dt must respect the acoustic CFL on the coarser mesh; the HEVI
        # core is vertically implicit, so only the horizontal CFL binds.
        dt = 0.4 * dom.dx / 500.0
        return replace(
            self,
            domain=dom,
            ensemble_size_analysis=members,
            ensemble_size_forecast=min(self.ensemble_size_forecast, members),
            dt=dt,
        )


# ---------------------------------------------------------------------------
# LETKF configuration (Table 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LETKFConfig:
    """LETKF configuration. Defaults reproduce Table 2 of the paper."""

    ensemble_size: int = 1000
    #: analysis height range [m] — Table 2 "0.5 - 11 km"
    analysis_zmin: float = 500.0
    analysis_zmax: float = 11000.0
    #: regridded observation resolution [m]
    obs_resolution: float = 500.0
    #: observation error standard deviations
    obs_error_refl_dbz: float = 5.0
    obs_error_doppler_ms: float = 3.0
    #: maximum observation number per grid point
    max_obs_per_grid: int = 1000
    #: gross error check thresholds (departures larger than this are rejected)
    gross_error_refl_dbz: float = 10.0
    gross_error_doppler_ms: float = 15.0
    #: Gaspari-Cohn localization scales [m]
    localization_h: float = 2000.0
    localization_v: float = 2000.0
    #: covariance inflation: relaxation to prior perturbation factor
    rtpp_factor: float = 0.95
    #: eigensolver backend: "lapack" or "kedv"
    eigensolver: str = "kedv"
    dtype: str = "float32"

    def numpy_dtype(self) -> np.dtype:
        return as_dtype(self.dtype)

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise ValueError("LETKF needs at least 2 ensemble members")
        if not (0.0 <= self.rtpp_factor <= 1.0):
            raise ValueError("RTPP factor must lie in [0, 1]")
        if self.eigensolver not in ("lapack", "kedv"):
            raise ValueError(f"unknown eigensolver {self.eigensolver!r}")

    def reduced(self, members: int = 20) -> "LETKFConfig":
        return replace(self, ensemble_size=members)


# ---------------------------------------------------------------------------
# Radar configuration (MP-PAWR, Sec. 5 / Fig. 3a / Fig. 6b)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadarConfig:
    """MP-PAWR instrument configuration.

    The MP-PAWR at Saitama University scans a gap-less 3-D volume every
    30 s out to 60 km (Fig. 6b hatching marks the out-of-range area).
    """

    name: str = "MP-PAWR-Saitama"
    #: radar site location in domain coordinates [m] (center of inner domain)
    site_x: float = 64_000.0
    site_y: float = 64_000.0
    site_z: float = 30.0
    max_range: float = 60_000.0
    scan_interval: float = 30.0  # [s]
    n_elevations: int = 110  # MP-PAWR dense elevation sampling
    n_azimuths: int = 300
    n_gates: int = 600
    gate_spacing: float = 100.0  # [m]
    #: additive noise applied to simulated observations
    noise_refl_dbz: float = 1.0
    noise_doppler_ms: float = 0.5
    #: fraction of low-elevation rays blocked by obstacles (Fig. 6b)
    blockage_fraction: float = 0.04

    def reduced(self, n_elevations: int = 12, n_azimuths: int = 60, n_gates: int = 120) -> "RadarConfig":
        return replace(
            self,
            n_elevations=n_elevations,
            n_azimuths=n_azimuths,
            n_gates=n_gates,
            gate_spacing=self.max_range / n_gates,
        )

    @property
    def rays_per_volume(self) -> int:
        return self.n_elevations * self.n_azimuths

    @property
    def samples_per_volume(self) -> int:
        return self.rays_per_volume * self.n_gates


# ---------------------------------------------------------------------------
# JIT-DT / SINET configuration (Sec. 5, 6.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JITDTConfig:
    """Just-In-Time Data Transfer over SINET.

    SINET offers a 400 Gbps line between Saitama and R-CCS (Sec. 6.2);
    the paper reports ~100 MB moved in ~3 s (so the effective end-to-end
    goodput including protocol overheads is far below line rate — we
    model that explicitly).
    """

    line_rate_gbps: float = 400.0
    #: effective application-level goodput [Gbps]; 100 MB / 3 s ~ 0.27 Gbps
    effective_goodput_gbps: float = 0.28
    latency_s: float = 0.01
    jitter_s: float = 0.3
    chunk_bytes: int = 4 * 1024 * 1024
    #: probability a transfer stalls and the fail-safe restarts JIT-DT
    stall_probability: float = 2.0e-4
    restart_penalty_s: float = 20.0
    #: typical raw volume-scan file size (paper: ~100 MB)
    file_bytes: int = 100 * 1024 * 1024


# ---------------------------------------------------------------------------
# Fugaku node allocation (Sec. 6.2, Fig. 2/3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeAllocation:
    """The exclusive Fugaku allocation used during the Games.

    11,580 nodes total (~7% of Fugaku): inner domain SCALE-LETKF on 8888
    nodes, of which 8008 run part <1> and 880 run part <2>; the outer
    domain uses 2002 nodes. From July 27 to Aug 8 technical issues forced
    13,854 nodes.
    """

    total_nodes: int = 11_580
    inner_nodes: int = 8_888
    part1_nodes: int = 8_008
    part2_nodes: int = 880
    outer_nodes: int = 2_002
    cores_per_node: int = 48
    #: enlarged allocation used July 27 - Aug 8
    total_nodes_enlarged: int = 13_854

    def __post_init__(self):
        if self.part1_nodes + self.part2_nodes != self.inner_nodes:
            raise ValueError(
                "inner-domain nodes must split exactly into part <1> and part <2>"
            )
        if self.inner_nodes + self.outer_nodes > self.total_nodes:
            raise ValueError("allocation exceeds the exclusive-node total")

    @property
    def total_cores(self) -> int:
        return self.inner_nodes * self.cores_per_node

    @property
    def fugaku_fraction(self) -> float:
        """Fraction of the full Fugaku (158,976 nodes) held exclusively."""
        return self.total_nodes / 158_976


# ---------------------------------------------------------------------------
# Real-time workflow configuration (Figs. 2, 4, 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkflowConfig:
    """End-to-end 30-second-refresh workflow parameters.

    Stage means follow Sec. 7: "JIT-DT sends ~100MB data in ~3 seconds,
    <1> SCALE-LETKF takes ~15 seconds, and <2> SCALE 30-minute forecast
    takes ~2 minutes"; the time-to-solution requirement is < 3 minutes.
    """

    cycle_interval_s: float = 30.0
    forecast_length_s: float = 1800.0  # 30-minute product forecast
    #: MP-PAWR raw file creation after scan completion (hardware, Fig. 4)
    file_creation_mean_s: float = 8.0
    file_creation_jitter_s: float = 2.0
    transfer_mean_s: float = 3.0
    letkf_mean_s: float = 11.0
    member_forecast_30s_mean_s: float = 4.0  # part <1-2>, overlaps within <1>
    forecast_30min_mean_s: float = 120.0  # part <2>
    #: rain-area sensitivity: extra compute seconds per 100 km^2 of rain
    rain_area_cost_s_per_100km2: float = 0.18
    #: probability of a straggler cycle (OS noise, I/O hiccup) and its
    #: mean extra delay — the histogram tail of Fig. 5c
    straggler_probability: float = 0.015
    straggler_mean_s: float = 30.0
    deadline_s: float = 180.0  # the "< 3 minutes" target
    jitdt: JITDTConfig = field(default_factory=JITDTConfig)
    nodes: NodeAllocation = field(default_factory=NodeAllocation)


# ---------------------------------------------------------------------------
# Execution backend selection (member-batched forecast engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionConfig:
    """How the ensemble forecast step is executed.

    ``serial`` integrates one member at a time (the seed behaviour, kept
    as a bit-exact fallback); ``vectorized`` integrates the whole
    member-batched :class:`~repro.model.ensemble_state.EnsembleState`
    through the kernels at once (the default — bit-identical to serial
    because every kernel is member-independent); ``sharded`` splits the
    member axis into ``n_shards`` blocks and runs each block through the
    virtual-MPI communicator, modelling the part <1-2> node groups;
    ``processes`` spreads member blocks over a persistent pool of
    worker processes that exchange state through shared-memory slabs
    (bit-identical to ``vectorized`` — each worker runs the same
    member-independent vectorized kernels on its block).

    ``precision`` selects the LETKF/eigen hot-path dtype: ``"single"``
    (float32 end-to-end, the paper's own choice and the default) or
    ``"double"``.  Results are bit-identical across reruns *within* a
    precision mode, never across modes.
    """

    backend: str = "vectorized"
    #: member-axis blocks for the sharded backend
    n_shards: int = 2
    #: worker-process count for the ``processes`` backend (``None`` =
    #: one per available core); also bounds LETKF row sharding
    workers: Optional[int] = None
    #: LETKF/eigen hot-path dtype: ``"single"`` or ``"double"``
    precision: str = "single"
    #: measured throughput of this backend relative to the serial
    #: per-member loop (fill from BENCH_cycle_throughput.json); the
    #: workflow cost model divides forecast-stage times by this
    relative_throughput: float = 1.0
    #: arm the runtime array sanitizer (:mod:`repro.checks.sanitizer`):
    #: kernel entry points assert dtype/contiguity, trap in-place
    #: mutation of inputs, and detect NaN/Inf creation. Off by default
    #: (the null-object sanitizer costs one attribute check); checks
    #: are read-only, so a sanitized run stays bit-identical
    sanitize: bool = False
    #: arm the runtime concurrency sanitizer
    #: (:mod:`repro.checks.concurrency`) on the ``processes`` backend:
    #: block handoffs record the designated writer per member range and
    #: write-protect the parent's slab views, so a foreign write raises
    #: :class:`~repro.checks.concurrency.OwnershipError` instead of
    #: racing a worker. Off by default; the checks are read-only, so a
    #: checked run stays bit-identical
    concurrency_checks: bool = False

    def __post_init__(self):
        if self.backend not in ("serial", "vectorized", "sharded", "processes"):
            raise ValueError(f"unknown execution backend {self.backend!r}")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for auto)")
        if self.precision not in ("single", "double"):
            raise ValueError(
                f"precision must be 'single' or 'double', got {self.precision!r}"
            )
        if self.relative_throughput <= 0.0:
            raise ValueError("relative_throughput must be positive")

    def precision_dtype(self) -> "np.dtype":
        """The numpy dtype selected by :attr:`precision`."""
        return np.dtype(np.float32 if self.precision == "single" else np.float64)


# ---------------------------------------------------------------------------
# Table 1 — operational regional NWP systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperationalSystem:
    """One row of Table 1 (operational regional NWP systems, early 2023)."""

    name: str
    center: str
    da_method: str
    grid_spacing_m: float
    grid_points: tuple[int, int, int]
    init_interval_s: float
    forecast_interval_s: float
    radar_usage: str
    ensemble_spacing_m: Optional[float]
    ensemble_members: Optional[int]

    @property
    def n_grid(self) -> int:
        nx, ny, nz = self.grid_points
        return nx * ny * nz

    @property
    def da_members(self) -> int:
        """Ensemble size used by the DA method (1 for pure-variational)."""
        import re

        m = re.search(r"(\d+)\s*members", self.da_method)
        return int(m.group(1)) if m else 1

    def problem_size_rate(self) -> float:
        """Problem-size throughput metric: DA-weighted grid points per second.

        (grid points) x (DA ensemble members) / (refresh interval). The
        paper claims the BDA system offers "two orders of magnitude
        increase in problem size" over Table 1 systems; this metric makes
        that comparable across rows.
        """
        return self.n_grid * self.da_members / self.init_interval_s


#: Table 1 of the paper, verbatim.
OPERATIONAL_SYSTEMS: tuple[OperationalSystem, ...] = (
    OperationalSystem(
        name="LFM",
        center="JMA, Japan",
        da_method="Hybrid 3DVar (5-km grid spacing)",
        grid_spacing_m=2000.0,
        grid_points=(1581, 1301, 76),
        init_interval_s=3600.0,
        forecast_interval_s=3600.0,
        radar_usage="Assimilation of RH from radar and radial wind",
        ensemble_spacing_m=5000.0,
        ensemble_members=21,  # MEPS
    ),
    OperationalSystem(
        name="HRRR v4",
        center="NCEP, US",
        da_method="Hybrid 3D EnVar, 36 members",
        grid_spacing_m=3000.0,
        grid_points=(1799, 1059, 51),
        init_interval_s=3600.0,
        forecast_interval_s=3600.0,
        radar_usage="Latent heating",
        ensemble_spacing_m=None,
        ensemble_members=None,
    ),
    OperationalSystem(
        name="HRDPS 6.0.0",
        center="ECCC, Canada",
        da_method="4DEnVar, perturbations from global ensemble",
        grid_spacing_m=2500.0,
        grid_points=(2576, 1456, 62),
        init_interval_s=6 * 3600.0,
        forecast_interval_s=6 * 3600.0,
        radar_usage="Latent heat nudging",
        ensemble_spacing_m=None,
        ensemble_members=None,
    ),
    OperationalSystem(
        name="UKV",
        center="Met Office, UK",
        da_method="4DVar",
        grid_spacing_m=1500.0,
        grid_points=(622, 810, 70),
        init_interval_s=3600.0,
        forecast_interval_s=3600.0,
        radar_usage="Latent heat nudging",
        ensemble_spacing_m=2200.0,
        ensemble_members=3,
    ),
    OperationalSystem(
        name="AROME France",
        center="Meteo-France",
        da_method="3DVar",
        grid_spacing_m=1250.0,
        grid_points=(2801, 1791, 90),
        init_interval_s=3600.0,
        forecast_interval_s=3 * 3600.0,
        radar_usage="Assimilation of pseudo-RH from radar",
        ensemble_spacing_m=2500.0,
        ensemble_members=12,
    ),
    OperationalSystem(
        name="ICON-D2",
        center="DWD, Germany",
        da_method="LETKF 40 members",
        grid_spacing_m=2200.0,
        grid_points=(542040, 1, 65),  # 542040 cells x 65 levels
        init_interval_s=3600.0,
        forecast_interval_s=3 * 3600.0,
        radar_usage="Latent heat nudging",
        ensemble_spacing_m=2200.0,
        ensemble_members=20,
    ),
)

#: The bottom row of Table 1: this paper's BDA system.
BDA2021_SYSTEM = OperationalSystem(
    name="BDA2021",
    center="RIKEN, Japan",
    da_method="LETKF 1000 members",
    grid_spacing_m=500.0,
    grid_points=(256, 256, 60),
    init_interval_s=30.0,
    forecast_interval_s=30.0,
    radar_usage="Reflectivity, Doppler velocity",
    ensemble_spacing_m=500.0,
    ensemble_members=11,
)
