"""Intensity measurement models and the one-bit comparison channel.

A model perturbs or distorts non-negative intensities; the channel keeps only
the sign of each pair difference (ties map to 0).  The effective
signal-to-noise constant of the sign channel,

    lambda = E[ sign(theta(E1) - theta(E2)) * (E1 - E2) ],  E1, E2 ~ Exp(1),

is available in closed form for the identity and additive-exponential models
and by Monte Carlo for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .sensing import sample_exponential, sample_poisson, substream


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


def parse_model(spec: str) -> MeasurementModel:
    """Parse a model spec string.

    Grammar: ``identity``, ``tanh:alpha=<f>``, ``expnoise:sigma=<f>``,
    ``poisson:eta=<f>``, ``clipgauss:sigma=<f>``.
    """
    text = spec.strip().lower()
    name, _, arg = text.partition(":")
    forms = {
        "identity": (Identity, None),
        "tanh": (TanhDistortion, "alpha"),
        "expnoise": (ExponentialNoise, "sigma"),
        "poisson": (PoissonNoise, "eta"),
        "clipgauss": (ClippedGaussianNoise, "sigma"),
    }
    if name not in forms:
        raise ValueError(f"unknown measurement model {name!r} in {spec!r}")
    cls, param = forms[name]
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


def format_model(model: MeasurementModel) -> str:
    """Inverse of :func:`parse_model`."""
    if isinstance(model, Identity):
        return "identity"
    if isinstance(model, TanhDistortion):
        return f"tanh:alpha={model.alpha:g}"
    if isinstance(model, ExponentialNoise):
        return f"expnoise:sigma={model.sigma:g}"
    if isinstance(model, PoissonNoise):
        return f"poisson:eta={model.eta:g}"
    if isinstance(model, ClippedGaussianNoise):
        return f"clipgauss:sigma={model.sigma:g}"
    raise TypeError(f"unknown model type {type(model).__name__}")


def model_param(model: MeasurementModel) -> Optional[float]:
    if isinstance(model, Identity):
        return None
    if isinstance(model, TanhDistortion):
        return model.alpha
    if isinstance(model, PoissonNoise):
        return model.eta
    return model.sigma


def apply_model(model: MeasurementModel, z, rng: Optional[np.random.Generator] = None):
    """Push non-negative intensities through the measurement model."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("intensities must be non-negative")
    if isinstance(model, _STOCHASTIC) and rng is None:
        raise ValueError(f"model {format_model(model)!r} needs an rng")
    if isinstance(model, Identity):
        return z.copy()
    if isinstance(model, TanhDistortion):
        return np.tanh(model.alpha * z)
    if isinstance(model, ExponentialNoise):
        return z + sample_exponential(np.sqrt(model.sigma), rng, size=z.shape)
    if isinstance(model, PoissonNoise):
        return sample_poisson(z / model.eta, rng).astype(float)
    if isinstance(model, ClippedGaussianNoise):
        return z + model.sigma * np.maximum(rng.standard_normal(z.shape), 0.0)
    raise TypeError(f"unknown model type {type(model).__name__}")


def quantize(b1, b2):
    """Sign of the pair difference, with exact ties mapped to 0."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
        raise ValueError("intensities must be finite")
    return np.sign(b1 - b2)


def ratio_weights(b1, b2) -> tuple[np.ndarray, np.ndarray]:
    """Normalized pair weights (b1, b2) / (b1 + b2); non-finite entries and
    zero-sum pairs are errors."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
        raise ValueError("intensities must be finite")
    total = b1 + b2
    if np.any(total <= 0):
        raise ValueError("ratio weights need b1 + b2 > 0 for every pair")
    return b1 / total, b2 / total


def observe_pairs(
    model: MeasurementModel,
    b1,
    b2,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push clean pair intensities through the model and keep one bit per pair.

    Returns the observed intensities and their signs ``(b1_obs, b2_obs, y)``.
    Deterministic strictly increasing distortions cannot change any pair
    comparison, so their signs are taken from the clean intensities
    (identical by monotonicity, and immune to float saturation).
    """
    b1_obs = apply_model(model, b1, rng)
    b2_obs = apply_model(model, b2, rng)
    if isinstance(model, _RANK_PRESERVING):
        return b1_obs, b2_obs, quantize(b1, b2)
    return b1_obs, b2_obs, quantize(b1_obs, b2_obs)


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
    measurements and averages sign(theta(E1) - theta(E2)) * (E1 - E2).  The
    Poisson model realizes the sign through two conditional Poisson draws, so
    the difference follows the exact Skellam law.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = substream(seed, "lambda-mc")
    e1 = sample_exponential(1.0, rng, size=samples)
    e2 = sample_exponential(1.0, rng, size=samples)
    if isinstance(model, PoissonNoise):
        p1 = sample_poisson(e1 / model.eta, rng)
        p2 = sample_poisson(e2 / model.eta, rng)
        signs = np.sign(p1 - p2)
    else:
        t1 = apply_model(model, e1, rng)
        t2 = apply_model(model, e2, rng)
        signs = np.sign(t1 - t2)
    stat = signs * (e1 - e2)
    estimate = float(np.mean(stat))
    std_error = float(np.std(stat, ddof=1) / np.sqrt(samples))
    return estimate, std_error
