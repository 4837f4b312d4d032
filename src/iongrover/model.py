"""Core value types for the single-excitation register simulator.

The simulation state lives in the (N+1)-dimensional single-excitation
manifold of an N-ion chain sharing one phonon mode: slot 0 is the ancilla
(one phonon, no ionic excitation) and slot k (k = 1..N) is the state with
ion k excited and zero phonons.  All types here are immutable values; the
amplitude arrays are frozen after construction and safe to share.  The
beams' coupling profiles (uniform, on one ion, Gaussian) live here too, and
so do the pulse types, an envelope ``PulseShape`` and a pulse ``PulseSpec``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Norm errors up to this are treated as accumulated float noise and silently
#: repaired by renormalization; anything larger is rejected as a likely bug.
NORM_REPAIR_TOL = 1e-9

VALID_MODES = ("ideal", "physical")
VALID_VARIANTS = ("probabilistic", "deterministic")
VALID_SCALINGS = ("field", "intensity")
VALID_CALIBRATIONS = ("calibrated", "uncalibrated")
VALID_REFLECTIONS = ("adapted", "uniform")
VALID_SHAPES = ("sech", "gaussian")


class DimensionMismatchError(ValueError):
    """Two objects that must share a register size do not."""


class NormalizationError(ValueError):
    """Amplitude data is too far from unit norm to be float noise."""


def _finite(value: Any) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_number(value: Any, what: str, integer: bool = False) -> None:
    """Reject bools, non-numbers, NaN and infinities (and integers too large
    for a float), and for counts and indices any non-integer or one beyond
    int64, the range of numpy's counts and indices; None (an unset optional
    field) passes."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)
                              or not (integer or _finite(value))):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if integer and value is not None and value > 2**63 - 1:
        raise ValueError(f"{what} must be at most 2**63 - 1, got {value!r}")


def l2_norm(vec: np.ndarray) -> float:
    """Norm of a contiguous complex vector, summed pairwise: the BLAS dot of
    ``np.linalg.norm`` was 1e-12 off at N = 262,144."""
    return float(np.sqrt(np.add.reduce(vec.view(float) ** 2)))


def _unit_vector(values: Any, what: str, min_len: int) -> np.ndarray:
    vec = np.array(values, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"{what} must be a 1-d vector, got shape {vec.shape}")
    if len(vec) < min_len:
        raise ValueError(f"{what} needs at least {min_len} components, got {len(vec)}")
    norm = l2_norm(vec)
    if not abs(norm - 1.0) <= NORM_REPAIR_TOL:
        raise NormalizationError(
            f"{what} has norm {norm:.12g}; expected 1 within {NORM_REPAIR_TOL:g}"
        )
    vec /= norm
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class RegisterState:
    """Normalized amplitudes over the ancilla (slot 0) and ions (slots 1..N)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        vec = _unit_vector(self.amplitudes, "register state", min_len=3)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def n_ions(self) -> int:
        return len(self.amplitudes) - 1

    @property
    def populations(self) -> np.ndarray:
        """|amplitude|^2 for every slot, ancilla first."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class CouplingVector:
    """Normalized per-ion coupling direction defining a Householder reflection."""

    components: np.ndarray

    def __post_init__(self) -> None:
        vec = _unit_vector(self.components, "coupling vector", min_len=2)
        object.__setattr__(self, "components", vec)

    @property
    def n_ions(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class PulseShape:
    """Dimensionless envelope f(t) with unit peak, symmetric about t = 0.

    ``width`` is the characteristic time T: sech uses f = sech(t/T), gaussian
    uses f = exp(-(t/T)^2).
    """

    kind: str
    width: float

    def __post_init__(self) -> None:
        if self.kind not in VALID_SHAPES:
            raise ValueError(f"unknown pulse shape {self.kind!r}")
        check_number(self.width, "pulse width")
        if not self.width > 0:
            raise ValueError("pulse width must be positive")

    def envelope(self, t):
        """Evaluate f(t); accepts scalars or arrays."""
        if self.kind == "sech":
            return 1.0 / np.cosh(np.asarray(t) / self.width)
        return np.exp(-((np.asarray(t) / self.width) ** 2))

    def integral(self, window: float | None = None) -> float:
        """Integral of f over [-window*T, window*T], full line when window is None."""
        if self.kind == "sech":
            if window is None:
                return math.pi * self.width
            x = math.exp(-window)
            # full-line pi*T minus the two tails 2*T*atan(e^-w) each
            return self.width * (math.pi - 4.0 * math.atan(x))
        if window is None:
            return math.sqrt(math.pi) * self.width
        return math.sqrt(math.pi) * self.width * math.erf(window)


@dataclass(frozen=True)
class PulseSpec:
    """One laser pulse: direction chi, rms Rabi peak, detuning and center time.

    The per-ion coupling amplitudes are ``rms_peak * chi``; since chi is
    normalized, the root-mean-square of the couplings equals ``rms_peak``.
    """

    shape: PulseShape
    chi: CouplingVector
    rms_peak: float
    detuning: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rms_peak", "detuning", "center"):
            check_number(getattr(self, name), name)
        if not self.rms_peak >= 0:
            raise ValueError("rms peak must be nonnegative")

    @property
    def couplings(self) -> np.ndarray:
        return self.rms_peak * self.chi.components

    @property
    def n_ions(self) -> int:
        return self.chi.n_ions


def uniform_register(n_ions: int) -> RegisterState:
    """Equal-weight superposition of all ion slots (the W register), empty ancilla."""
    if n_ions < 2:
        raise ValueError(f"register needs at least 2 ions, got {n_ions}")
    amp = np.zeros(n_ions + 1, dtype=complex)
    amp[1:] = 1.0 / np.sqrt(n_ions)
    return RegisterState(amp)


def basis_register(n_ions: int, index: int) -> RegisterState:
    """Register with all population in one slot (0 = ancilla, 1..N = ions)."""
    if n_ions < 2:
        raise ValueError(f"register needs at least 2 ions, got {n_ions}")
    if not 0 <= index <= n_ions:
        raise IndexError(f"slot index {index} out of range for N={n_ions}")
    amp = np.zeros(n_ions + 1, dtype=complex)
    amp[index] = 1.0
    return RegisterState(amp)


def uniform_chi(n_ions: int) -> CouplingVector:
    """Coupling vector of a spatially uniform beam across the chain."""
    return CouplingVector(np.ones(n_ions) / np.sqrt(n_ions))


def local_chi(n_ions: int, marked_index: int) -> CouplingVector:
    """Coupling vector of a beam addressing only one ion."""
    if not 1 <= marked_index <= n_ions:
        raise IndexError(f"ion index {marked_index} out of range for N={n_ions}")
    vec = np.zeros(n_ions, dtype=complex)
    vec[marked_index - 1] = 1.0
    return CouplingVector(vec)


def beam_factors(n_ions: int, epsilon: float, scaling: str = "field") -> np.ndarray:
    """Per-ion coupling factors of a Gaussian beam with edge deficit epsilon.

    Ion positions are abstract uniformly spaced coordinates x_n in [-1, 1],
    and the center of the chain is normalized to 1.  ``field`` scaling
    applies the deficit to the couplings directly (f_n = (1-eps)^(x_n^2));
    ``intensity`` scaling treats epsilon as an intensity deficit, so the
    couplings, which go as the field, lose only 1 - sqrt(1-eps) at the edges.
    """
    if n_ions < 2:
        raise ValueError(f"need at least 2 ions, got {n_ions}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if scaling == "field":
        eff = epsilon
    elif scaling == "intensity":
        eff = 1.0 - math.sqrt(1.0 - epsilon)
    else:
        raise ValueError(f"scaling must be 'field' or 'intensity', got {scaling!r}")
    x = (2.0 * np.arange(1, n_ions + 1) - n_ions - 1) / (n_ions - 1)
    return (1.0 - eff) ** (x**2)


def fidelity(a: RegisterState, b: RegisterState) -> float:
    """Squared overlap |<a|b>|^2, insensitive to global phase."""
    if a.n_ions != b.n_ions:
        raise DimensionMismatchError(
            f"register sizes differ: {a.n_ions} vs {b.n_ions}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def marked_probability(state: RegisterState, marked_index: int) -> float:
    """Population of the marked ion's slot."""
    if not 1 <= marked_index <= state.n_ions:
        raise IndexError(
            f"ion index {marked_index} out of range for N={state.n_ions}"
        )
    return min(1.0, float(abs(state.amplitudes[marked_index]) ** 2))  # may round past 1


@dataclass(frozen=True)
class PulseSettings:
    """Defaults for the laser pulses used by a search run.

    ``peak_coupling``, the rms Rabi peak, defaults to the exact 2-pi area
    2*pi/integral(f); a detuned non-sech pulse is calibrated instead.
    ``spacing`` is the distance between pulse centers, in units of the width.
    """

    shape: str = "sech"
    width: float = 1.0
    spacing: float = 30.0
    peak_coupling: float | None = None

    def __post_init__(self) -> None:
        PulseShape(self.shape, self.width)
        for name in ("spacing", "peak_coupling"):
            check_number(getattr(self, name), name)
        if self.spacing <= 0:
            raise ValueError("pulse spacing must be positive")
        if self.peak_coupling is not None and self.peak_coupling <= 0:
            raise ValueError("peak coupling must be positive")


@dataclass(frozen=True)
class ImperfectionSettings:
    """Laser-beam inhomogeneity applied to the init and global pulses.

    ``custom_factors`` overrides the Gaussian-profile factors with an arbitrary
    per-ion coupling profile (e.g. for higher vibrational modes whose couplings
    depend on ion position).
    """

    epsilon: float = 0.0
    scaling: str = "field"
    calibration: str = "calibrated"
    reflection: str = "adapted"
    custom_factors: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_number(self.epsilon, "epsilon")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.scaling not in VALID_SCALINGS:
            raise ValueError(f"scaling must be one of {VALID_SCALINGS}")
        if self.calibration not in VALID_CALIBRATIONS:
            raise ValueError(f"calibration must be one of {VALID_CALIBRATIONS}")
        if self.reflection not in VALID_REFLECTIONS:
            raise ValueError(f"reflection must be one of {VALID_REFLECTIONS}")
        if self.custom_factors is not None:
            given = self.custom_factors
            # any non-empty sequence, but no string, mapping or lone value
            factors = () if isinstance(given, (str, bytes, Mapping)) else given
            factors = tuple(factors) if isinstance(factors, Iterable) else ()
            if not factors:
                raise ValueError("custom_factors must be a non-empty list of numbers, "
                                 f"got {given!r}")
            for f in factors:
                check_number(f, "custom_factors entry")
            if not all(0 < f <= 1 for f in factors):
                raise ValueError("custom factors must lie in (0, 1]")
            object.__setattr__(self, "custom_factors", tuple(map(float, factors)))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    ``window`` is the truncation half-width in units of the envelope width;
    at the default 15 the discarded sech tail area is a few 1e-6 radians,
    well below the operator tolerances used anywhere in the package.
    """

    steps_per_pulse: int = 4000
    window: float = 15.0
    trajectory_stride: int = 8

    def __post_init__(self) -> None:
        check_number(self.steps_per_pulse, "steps_per_pulse", integer=True)
        check_number(self.trajectory_stride, "trajectory_stride", integer=True)
        check_number(self.window, "window")
        if self.steps_per_pulse < 16:
            raise ValueError("need at least 16 steps per pulse")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.trajectory_stride < 1:
            raise ValueError("trajectory stride must be at least 1")


@dataclass(frozen=True)
class SearchConfig:
    """Complete description of one search experiment."""

    n_ions: int
    marked_index: int
    mode: str = "ideal"
    variant: str = "probabilistic"
    iterations: int | None = None
    pulse: PulseSettings = field(default_factory=PulseSettings)
    imperfection: ImperfectionSettings = field(default_factory=ImperfectionSettings)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    shots: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_ions", "marked_index", "iterations", "shots"):
            check_number(getattr(self, name), name, integer=True)
        if self.n_ions < 2:
            raise ValueError(f"need at least 2 ions, got {self.n_ions}")
        if not 1 <= self.marked_index <= self.n_ions:
            raise ValueError(
                f"marked index {self.marked_index} out of range for N={self.n_ions}"
            )
        if self.mode not in VALID_MODES:
            raise ValueError(f"mode must be one of {VALID_MODES}")
        if self.variant not in VALID_VARIANTS:
            raise ValueError(f"variant must be one of {VALID_VARIANTS}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iteration count must be at least 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shot count must be at least 1")
        if (
            self.imperfection.custom_factors is not None
            and len(self.imperfection.custom_factors) != self.n_ions
        ):
            raise ValueError("custom factor vector length must equal n_ions")


def _squared(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise, with one temporary."""
    out = np.abs(z)
    return np.square(out, out=out)


@dataclass(frozen=True)
class Trajectory:
    """Population trace of a run, held in the run's invariant subspace.

    The orthonormal columns of ``basis`` (N+1 x r, ancilla first) span every
    state the run passes through, and row m of ``coords`` (M x r) is the m-th
    recorded state in that basis, so trace row m is |basis @ coords[m]|^2.
    Slot populations cost O(M r) and a row total is ||coords[m]||^2.
    """

    basis: np.ndarray
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.basis.setflags(write=False)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def nbytes(self) -> int:
        """Bytes held by the basis and the coordinates."""
        return self.basis.nbytes + self.coords.nbytes

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.basis).all() and np.isfinite(self.coords).all())

    def slots(self, index) -> np.ndarray:
        """Populations of the indexed slots, one row per recorded sample."""
        return _squared(self.coords @ self.basis[index].T)

    def totals(self) -> np.ndarray:
        """Row sums, ||coords[m]||^2 (the basis is an isometry)."""
        return _squared(self.coords).sum(axis=-1)

    def columns(self, marked_index: int, rows: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
        """Per row of ``rows`` (every row by default): the marked slot, the
        ancilla and the total of every other slot, shape (rows, 3), written
        into ``out`` if given.  Each row has the bits of the whole table's:
        matmul forms a lone row (gemv) otherwise than several (gemm), so a
        lone row after the first is formed with the row before it.  The
        marked slot is clipped at 1, as an ideal run's success probability
        is, after the total of the others is formed from it."""
        start, stop, _ = rows.indices(len(self))
        first = max(0, min(start, stop - 2))
        coords = self.coords[first:stop]
        out = np.empty((stop - start, 3)) if out is None else out
        out[:, :2] = _squared(coords @ self.basis[[marked_index, 0]].T)[start - first:]
        out[:, 2] = _squared(coords[start - first:]).sum(axis=-1) - out[:, 0] - out[:, 1]
        np.minimum(out[:, 0], 1.0, out=out[:, 0])
        return out


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search run plus the recorded population trace.

    ``trajectory_times`` holds absolute times in physical mode and iteration
    indices in ideal mode, one per row of the reduced ``trajectory``.
    """

    final_state: RegisterState
    success_probability: float
    trajectory_times: np.ndarray
    trajectory: Trajectory
    iterations_executed: int
    parameters_used: dict

    def __post_init__(self) -> None:
        marked = self.parameters_used.get("marked_index")
        if marked is not None:
            direct = marked_probability(self.final_state, marked)
            if abs(direct - self.success_probability) > 1e-12:
                raise ValueError(
                    "success probability inconsistent with final state: "
                    f"{self.success_probability!r} vs {direct!r}"
                )
        if not isinstance(self.trajectory, Trajectory):
            raise TypeError("trajectory must be a Trajectory, got "
                            f"{type(self.trajectory).__name__}")
        times = np.asarray(self.trajectory_times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "trajectory_times", times)
