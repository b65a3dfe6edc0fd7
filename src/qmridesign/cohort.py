"""Tissue-class parameter distributions and labeled cohort simulation.

Each tissue class carries independent Gaussian priors over (f, d, d_star),
truncated by rejection sampling to the physically valid region. A cohort is
an (n, 4) array of parameter rows with one class code per row, its class's
index in the cohort spec; a dataset adds the simulated signal matrix and,
after fitting, the per-subject feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .ivim import AcquisitionProtocol, ScannerConfig, add_rician_noise, check_params, ivim_signal

__all__ = [
    "TissueClass",
    "TissueDistribution",
    "CohortSpec",
    "Cohort",
    "Dataset",
    "CohortError",
    "MissingDistributionError",
    "sample_cohort",
    "simulate_dataset",
]

# rejection-sampling bounds for the perfusion fraction
F_LOW, F_HIGH = 0.001, 0.999

_MAX_REDRAW_ROUNDS = 1000


class TissueClass(str, Enum):
    ACTIVE = "active"
    CHRONIC = "chronic"
    HEALTHY = "healthy"

    def __str__(self) -> str:  # keeps report rows readable
        return self.value


class CohortError(ValueError):
    """A cohort cannot be drawn; the message names the class by its token."""


class MissingDistributionError(CohortError):
    """A cohort spec names a class with no configured distribution or subject count."""


@dataclass(frozen=True)
class TissueDistribution:
    """Gaussian priors (means/stds per parameter) for the tissue class whose key maps to it."""

    mean_f: float
    std_f: float
    mean_d: float
    std_d: float
    mean_dstar: float
    std_dstar: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_f < 1.0:
            raise ValueError(f"mean_f must lie in (0, 1), got {self.mean_f}")
        if not self.mean_d > 0 or not self.mean_dstar > 0:
            raise ValueError("mean_d and mean_dstar must be positive")
        for name in ("std_f", "std_d", "std_dstar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CohortSpec:
    """Per-class subject counts."""

    counts: Mapping[TissueClass, int] = field(
        default_factory=lambda: {
            TissueClass.ACTIVE: 20,
            TissueClass.CHRONIC: 21,
            TissueClass.HEALTHY: 21,
        }
    )

    def __post_init__(self) -> None:
        for label, count in self.counts.items():
            if count < 1:
                raise ValueError(f"subject count for {label} must be >= 1, got {count}")

    def restricted(self, classes: Sequence[TissueClass]) -> "CohortSpec":
        """Spec containing only the named classes (order preserved)."""
        missing = [c.value for c in classes if c not in self.counts]
        if missing:
            raise MissingDistributionError(f"no subject counts for classes: {missing}")
        return CohortSpec({c: self.counts[c] for c in classes})

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class Cohort:
    """Ground-truth parameter rows and their class codes, one per subject."""

    labels: np.ndarray  # (n,) int class codes: indices into the spec's class order
    params: np.ndarray  # (n, 4) columns (s0, f, d, d_star)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class Dataset:
    """Per-subject class codes, signals and optional fit features."""

    labels: np.ndarray        # (n,) int class codes, as the cohort's
    signals: np.ndarray       # (n, len(protocol))
    b_values: np.ndarray      # shared acquisition b-values, s/mm^2
    features: np.ndarray | None = None   # (n, 4) fitted (s0, f, d, d_star)
    fit_flags: np.ndarray | None = None  # (n, 3) bool (deficient, f_clamped, dstar_at_bound)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.signals.shape != (n, len(self.b_values)):
            raise ValueError(
                f"signal matrix shape {self.signals.shape} does not match "
                f"{n} subjects x {len(self.b_values)} acquisitions"
            )

    def __len__(self) -> int:
        return len(self.labels)


def _redraw_truncated(
    rng: np.random.Generator,
    mean: float,
    std: float,
    low,
    high,
    n: int,
    strict_low: bool = False,
) -> np.ndarray:
    """Gaussian draws redrawn until inside [low, high] (low exclusive if strict)."""
    x = rng.normal(mean, std, size=n)
    for _ in range(_MAX_REDRAW_ROUNDS):
        bad = (x <= low) if strict_low else (x < low)
        bad = bad | (x > high)
        if not bad.any():
            return x
        x = np.where(bad, rng.normal(mean, std, size=n), x)
    raise ValueError(
        f"rejection sampling failed to satisfy [{np.min(low)}, {high}] after "
        f"{_MAX_REDRAW_ROUNDS} rounds (mean={mean}, std={std})"
    )


def sample_cohort(
    distributions: Mapping[TissueClass, TissueDistribution],
    spec: CohortSpec,
    rng: np.random.Generator,
) -> Cohort:
    """Draw the requested number of subjects per class, coded by its index in the spec.

    f is truncated to [F_LOW, F_HIGH]; d and d_star are redrawn until
    positive, and d_star additionally until d_star >= d so every row passes
    ``check_params``. s0 is fixed at 1.0 (not class-discriminative; fitted
    s0 still varies through TE and noise).
    """
    params = np.ones((spec.total, 4))
    start = 0
    for label, count in spec.counts.items():
        if label not in distributions:
            raise MissingDistributionError(f"no tissue distribution configured for {label.value}")
        dist = distributions[label]
        _, f, d, dstar = params[start : start + count].T
        try:
            f[:] = _redraw_truncated(rng, dist.mean_f, dist.std_f, F_LOW, F_HIGH, count)
            d[:] = _redraw_truncated(rng, dist.mean_d, dist.std_d, 0.0, np.inf, count, strict_low=True)
            dstar[:] = _redraw_truncated(rng, dist.mean_dstar, dist.std_dstar, d, np.inf, count)
        except ValueError as err:
            raise CohortError(f"cannot sample tissue class {label.value}: {err}") from err
        start += count
    return Cohort(labels=np.repeat(np.arange(len(spec.counts)), list(spec.counts.values())), params=params)


def simulate_dataset(
    cohort: Cohort,
    protocol: AcquisitionProtocol,
    scanner: ScannerConfig,
    rng: np.random.Generator,
) -> Dataset:
    """Simulate one noisy acquisition per subject.

    The noise sigma is 1/snr in units of the reference b=0 amplitude (the
    pre-T2-decay s0 = 1 level), so longer echo times reduce the effective
    SNR of every measurement. Subject i's noise draws follow those of
    subjects 0..i-1, so a subject's signal does not depend on the cohort
    members after it.
    """
    check_params(cohort.params)
    b = protocol.b_array
    clean = ivim_signal(cohort.params, b, protocol.echo_time(scanner), scanner.t2)
    return Dataset(
        labels=cohort.labels,
        signals=add_rician_noise(clean, scanner.noise_sigma, rng),
        b_values=b,
    )
