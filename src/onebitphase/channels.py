"""Intensity measurement models and the one-bit comparison channel.

A model perturbs or distorts non-negative intensities; the channel keeps only
the sign of each pair difference (ties map to 0).  Every function that takes
intensities checks them by one rule, :func:`checked_intensities`.  The effective
signal-to-noise constant of the sign channel,

    lambda = E[ sign(theta(E1) - theta(E2)) * (E1 - E2) ],  E1, E2 ~ Exp(1),

is available in closed form for the identity and additive-exponential models
and by Monte Carlo for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .sensing import sample_exponential, substream


@dataclass(frozen=True)
class Identity:
    """Intensities observed exactly."""


@dataclass(frozen=True)
class TanhDistortion:
    """Saturating deterministic distortion z -> tanh(alpha * z)."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")


@dataclass(frozen=True)
class ExponentialNoise:
    """Additive exponential noise with variance sigma (mean sqrt(sigma))."""

    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be non-negative and finite")


@dataclass(frozen=True)
class PoissonNoise:
    """Photon-count readout: z -> Poisson(z / eta); larger eta is noisier."""

    eta: float

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")


@dataclass(frozen=True)
class ClippedGaussianNoise:
    """Additive one-sided Gaussian noise z -> z + sigma * max(g, 0)."""

    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be non-negative and finite")


MeasurementModel = Union[
    Identity, TanhDistortion, ExponentialNoise, PoissonNoise, ClippedGaussianNoise
]

# Deterministic models that preserve the ordering of intensities exactly; for
# these the sign channel can be evaluated on the undistorted values.
_RANK_PRESERVING = (Identity, TanhDistortion)

_STOCHASTIC = (ExponentialNoise, PoissonNoise, ClippedGaussianNoise)


# spec name -> model class and the name of its one parameter (None: none)
_FAMILIES = {
    "identity": (Identity, None),
    "tanh": (TanhDistortion, "alpha"),
    "expnoise": (ExponentialNoise, "sigma"),
    "poisson": (PoissonNoise, "eta"),
    "clipgauss": (ClippedGaussianNoise, "sigma"),
}


def parse_model(spec: str) -> MeasurementModel:
    """Parse a model spec string.

    Grammar: ``identity``, ``tanh:alpha=<f>``, ``expnoise:sigma=<f>``,
    ``poisson:eta=<f>``, ``clipgauss:sigma=<f>``.
    """
    text = spec.strip().lower()
    name, _, arg = text.partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown measurement model {name!r} in {spec!r}")
    cls, param = _FAMILIES[name]
    if param is None:
        if arg:
            raise ValueError(f"model {name!r} takes no parameter, got {spec!r}")
        return cls()
    key, _, value = arg.partition("=")
    if key != param or not value:
        raise ValueError(f"expected {name}:{param}=<float>, got {spec!r}")
    try:
        return cls(float(value))
    except ValueError as exc:
        raise ValueError(f"bad parameter in model spec {spec!r}: {exc}") from None


def model_family(model: MeasurementModel) -> tuple[str, Optional[float]]:
    """The spec name of the model's family and its parameter value, if any."""
    for name, (cls, param) in _FAMILIES.items():
        if isinstance(model, cls):
            return name, None if param is None else getattr(model, param)
    raise TypeError(f"unknown model type {type(model).__name__}")


def format_model(model: MeasurementModel) -> str:
    """Inverse of :func:`parse_model`."""
    name, value = model_family(model)
    return name if value is None else f"{name}:{_FAMILIES[name][1]}={value:g}"


def checked_intensities(b) -> np.ndarray:
    """``b`` as a float array, if every entry is finite and non-negative."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("intensities must be finite and non-negative")
    return b


def apply_model(model: MeasurementModel, z, rng: Optional[np.random.Generator] = None):
    """Push intensities through the measurement model."""
    z = checked_intensities(z)
    if isinstance(model, _STOCHASTIC) and rng is None:
        raise ValueError(f"model {format_model(model)!r} needs an rng")
    if isinstance(model, Identity):
        return z.copy()
    if isinstance(model, TanhDistortion):
        return np.tanh(model.alpha * z)
    if isinstance(model, ExponentialNoise):
        return z + sample_exponential(np.sqrt(model.sigma), rng, size=z.shape)
    if isinstance(model, PoissonNoise):
        return rng.poisson(z / model.eta).astype(float)
    if isinstance(model, ClippedGaussianNoise):
        return z + model.sigma * np.maximum(rng.standard_normal(z.shape), 0.0)
    raise TypeError(f"unknown model type {type(model).__name__}")


def quantize(b1, b2):
    """Sign of the pair difference, with exact ties mapped to 0."""
    return np.sign(checked_intensities(b1) - checked_intensities(b2))


def ratio_weights(b1, b2) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights (b1, b2) / (b1 + b2); a pair with b1 + b2 = 0, whose sign is
    a tie, gets weight 0, since any weight gives it one-bit coefficient 0."""
    b1, b2 = checked_intensities(b1), checked_intensities(b2)
    total = b1 + b2
    return tuple(np.divide(b, total, out=np.zeros_like(total), where=total > 0) for b in (b1, b2))


def observe_pairs(
    model: MeasurementModel,
    b,
    pairs: tuple[slice, slice],
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Push clean intensities through the model and keep one bit per pair.

    ``pairs`` places the two members of each pair in ``b`` (see
    :func:`~onebitphase.sensing.build_paired_ensemble`).  The model is applied
    to family 1 and then to family 2, and ``(b_obs, y)`` are the observed
    intensities, in the order of ``b``, and the sign of each pair
    difference.  Deterministic strictly increasing distortions cannot change
    any pair comparison, so their signs are taken from the clean intensities
    (identical by monotonicity, and immune to float saturation).
    """
    b = np.asarray(b, dtype=float)
    if not 2 * b[pairs[0]].size == 2 * b[pairs[1]].size == b.size:
        raise ValueError(f"pairs {pairs} do not split {b.shape} intensities into two families")
    b_obs = np.empty_like(b)
    for family in pairs:
        b_obs[family] = apply_model(model, b[family], rng)
    signed = b if isinstance(model, _RANK_PRESERVING) else b_obs
    return b_obs, quantize(signed[pairs[0]], signed[pairs[1]])


def lambda_closed_form(model: MeasurementModel) -> Optional[float]:
    """Exact channel constant where known: identity and exponential noise."""
    if isinstance(model, Identity):
        return 1.0
    if isinstance(model, ExponentialNoise):
        root = np.sqrt(model.sigma)
        return float((1.0 + 2.0 * root) / (1.0 + root) ** 2)
    return None


def lambda_monte_carlo(
    model: MeasurementModel, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate (value, standard error) of the channel constant.

    Draws intensity pairs from the exact Exp(1) law of unit-signal
    measurements and averages sign(theta(E1) - theta(E2)) * (E1 - E2), with
    theta drawn by :func:`apply_model` on E1 and then on E2.  Under the
    Poisson model these are two conditional Poisson counts, so their
    difference follows the exact Skellam law.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = substream(seed, "lambda-mc")
    e1 = sample_exponential(1.0, rng, size=samples)
    e2 = sample_exponential(1.0, rng, size=samples)
    t1 = apply_model(model, e1, rng)
    t2 = apply_model(model, e2, rng)
    stat = np.sign(t1 - t2) * (e1 - e2)
    estimate = float(np.mean(stat))
    std_error = float(np.std(stat, ddof=1) / np.sqrt(samples))
    return estimate, std_error
