"""Bi-exponential (IVIM) diffusion signal model with echo-time coupling.

The forward model for a measurement at diffusion weighting ``b`` is

    S(b) = s0 * exp(-TE/T2) * (f * exp(-b*d_star) + (1 - f) * exp(-b*d))

where ``f`` is the perfusion fraction, ``d`` the tissue diffusivity and
``d_star`` the pseudo-diffusivity of the perfusion compartment. The echo
time is not a free parameter: the largest b-value of a protocol dictates
the diffusion-encoding duration and therefore the minimum achievable TE,
which in turn sets the T2 attenuation of every measurement. This coupling
is what makes very high b-values costly.

Measurement noise is Rician: the magnitude of the complex signal after
adding independent zero-mean Gaussians to the real and imaginary channels.

Every function here is array-first: the forward model evaluates one
parameter tuple or an (n, 4) array of them, and the noise draw covers a
whole signal array at once.

Units: b-values are carried in s/mm^2 throughout the package and converted
to SI (s/m^2) in exactly one place, inside :func:`min_te`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GYROMAGNETIC_RATIO_H1",
    "PROTOCOL_LENGTH",
    "B_VALUE_MAX",
    "ADHOC_B_VALUES",
    "IvimParams",
    "PARAM_NAMES",
    "check_params",
    "ScannerConfig",
    "AcquisitionProtocol",
    "min_te",
    "ivim_signal",
    "add_rician_noise",
]

#: proton gyromagnetic ratio, rad s^-1 T^-1
GYROMAGNETIC_RATIO_H1 = 2.675e8

#: number of acquisitions per protocol
PROTOCOL_LENGTH = 10

#: upper edge of the b-value grid, s/mm^2
B_VALUE_MAX = 1000.0

#: clinically used baseline protocol, s/mm^2
ADHOC_B_VALUES = (0.0, 10.0, 20.0, 30.0, 50.0, 80.0, 100.0, 200.0, 400.0, 800.0)


@dataclass(frozen=True)
class IvimParams:
    """Ground-truth or estimated tissue parameters.

    s0 is a unitless signal scale (1.0 for the simulated reference), f the
    perfusion fraction, d and d_star diffusivities in mm^2/s. The perfusion
    compartment must decay at least as fast as the tissue compartment
    (d_star >= d); violating tuples are rejected at construction.
    """

    s0: float
    f: float
    d: float
    d_star: float

    def __post_init__(self) -> None:
        check_params(self.as_array()[None, :])

    def as_array(self) -> np.ndarray:
        """Parameter vector in the canonical order (s0, f, d, d_star)."""
        return np.array([self.s0, self.f, self.d, self.d_star])


#: the canonical parameter order of every (n, 4) parameter or feature array
PARAM_NAMES = tuple(f.name for f in fields(IvimParams))


def check_params(params: np.ndarray) -> None:
    """Reject invalid rows of an (n, 4) (s0, f, d, d_star) array, all rows at once."""
    s0, f, d, dstar = params.T
    bad = ~((s0 > 0) & (f >= 0.0) & (f <= 1.0) & (d > 0) & (dstar > 0) & (dstar >= d))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"invalid IVIM parameters for subject {i}: (s0, f, d, d_star) = "
            f"{tuple(params[i].tolist())}; need s0 > 0, 0 <= f <= 1, d > 0, "
            "d_star > 0 and d_star >= d (the perfusion compartment decays faster)"
        )


@dataclass(frozen=True)
class ScannerConfig:
    """Hardware and noise context for a simulated acquisition.

    gradient_strength in T/m (min_te pairs it with GYROMAGNETIC_RATIO_H1),
    times in seconds. ``snr`` is the signal-to-noise ratio at the reference
    b=0 amplitude, so the Gaussian channel noise has sigma = 1/snr.
    """

    gradient_strength: float = 0.033
    te_overhead: float = 0.020
    t2: float = 0.100
    snr: float = 25.0

    def __post_init__(self) -> None:
        for name in ("gradient_strength", "te_overhead", "t2", "snr"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if not self.snr > 1:
            raise ValueError(f"snr must exceed 1 for sigma = 1/snr to be meaningful, got {self.snr}")

    @property
    def noise_sigma(self) -> float:
        """Channel noise sigma in units of the reference b=0 amplitude."""
        return 1.0 / self.snr


def min_te(b_max: float, scanner: ScannerConfig) -> float:
    """Minimum echo time for a protocol whose largest b-value is ``b_max``.

    Uses the pulsed-gradient relation b = gamma^2 G^2 delta^2 (Delta - delta/3)
    with the simplification Delta = delta, so b = (2/3) gamma^2 G^2 delta^3 and
    TE = 2*delta + te_overhead. Monotonically non-decreasing in b_max;
    b_max = 0 returns the bare overhead.
    """
    if b_max < 0:
        raise ValueError(f"b_max must be non-negative, got {b_max}")
    b_si = b_max * 1.0e6  # s/mm^2 -> s/m^2, the single unit conversion point
    gamma_g_sq = (GYROMAGNETIC_RATIO_H1 * scanner.gradient_strength) ** 2
    delta = (3.0 * b_si / (2.0 * gamma_g_sq)) ** (1.0 / 3.0)
    return scanner.te_overhead + 2.0 * delta


@dataclass(frozen=True)
class AcquisitionProtocol:
    """An ordered set of PROTOCOL_LENGTH b-values, stored sorted ascending.

    Invariants: exactly PROTOCOL_LENGTH values, each within [0, B_VALUE_MAX],
    at least one b = 0. The echo time is derived from the largest b-value and
    the governing scanner, never stored, so it cannot go stale.
    """

    b_values: tuple

    def __post_init__(self) -> None:
        values = tuple(sorted(float(b) + 0.0 for b in self.b_values))  # + 0.0 stores -0 as 0
        if len(values) != PROTOCOL_LENGTH:
            raise ValueError(
                f"protocol must contain exactly {PROTOCOL_LENGTH} b-values, got {len(values)}"
            )
        for b in values:  # written so that a NaN, which sorted() leaves in place, fails
            if not 0.0 <= b <= B_VALUE_MAX:
                raise ValueError(f"b-values must lie within [0, {B_VALUE_MAX:g}], got {b}")
        if values[0] != 0.0:
            raise ValueError("protocol must contain at least one b = 0 measurement")
        object.__setattr__(self, "b_values", values)

    @classmethod
    def adhoc(cls) -> "AcquisitionProtocol":
        return cls(ADHOC_B_VALUES)

    @property
    def b_array(self) -> np.ndarray:
        return np.asarray(self.b_values, dtype=float)

    @property
    def b_max(self) -> float:
        return self.b_values[-1]

    def echo_time(self, scanner: ScannerConfig) -> float:
        """Protocol TE under ``scanner``, recomputed from the largest b-value."""
        return min_te(self.b_max, scanner)


def ivim_signal(params, b, te: float, t2: float):
    """Noise-free bi-exponential signal at diffusion weighting ``b``.

    ``params`` is one IvimParams, whose result matches the shape of ``b``
    (scalar or array, s/mm^2), or an (n, 4) array of (s0, f, d, d_star)
    rows, whose result is (n, len(b)).
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError("b-values must be non-negative")
    if te < 0:
        raise ValueError(f"te must be non-negative, got {te}")
    if not t2 > 0:
        raise ValueError(f"t2 must be positive, got {t2}")
    if isinstance(params, IvimParams):
        s0, f, d, dstar = params.s0, params.f, params.d, params.d_star
    else:
        s0, f, d, dstar = (col[:, None] for col in np.asarray(params, dtype=float).T)
    decay = np.exp(-te / t2)
    signal = s0 * decay * (f * np.exp(-b * dstar) + (1.0 - f) * np.exp(-b * d))
    return signal if signal.ndim else float(signal)


def add_rician_noise(signal: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Magnitude signal after adding channel noise of std ``sigma``.

    Returns sqrt((signal + xi1)^2 + xi2^2) elementwise, with xi1, xi2
    independent N(0, sigma^2) draws. For a signal of shape (..., n_b) the
    draw has shape (..., 2, n_b): each row takes its real-channel then its
    imaginary-channel values, so the result for row i does not depend on
    how many rows follow it. Every call consumes fresh draws, so repeated
    b-values in a protocol receive independent noise.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    signal = np.asarray(signal, dtype=float)
    noise = rng.normal(0.0, sigma, size=signal.shape[:-1] + (2, signal.shape[-1]))
    return np.hypot(signal + noise[..., 0, :], noise[..., 1, :])
