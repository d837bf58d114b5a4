"""Intensity measurement models and the one-bit comparison channel.

A model perturbs or distorts non-negative intensities; the channel keeps only
the sign of each pair difference (ties map to 0).  A :class:`Model` names a
family and its parameter value; each family is one entry of the table
:data:`FAMILIES`.  Every function that takes intensities checks them by one
rule, :func:`checked_intensities`.  The effective signal-to-noise constant
of the sign channel,

    lambda = E[ sign(theta(E1) - theta(E2)) * (E1 - E2) ],  E1, E2 ~ Exp(1),

is available in closed form for the identity and additive-exponential models
and by Monte Carlo for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sensing import sample_exponential, substream


@dataclass(frozen=True)
class Family:
    """One entry of :data:`FAMILIES`."""

    param: Optional[str]  # the name of its one parameter (None: it takes none)
    rule: Optional[tuple[Callable, str]]  # the test a parameter value must pass, and its rule
    distort: Callable  # (value, z, rng) -> the observed intensities
    noisy: bool  # it draws noise, so it needs an rng
    clean_signs: bool  # its signs come from the clean intensities
    closed_form: Optional[Callable] = None  # value -> the channel constant, where known


_POSITIVE = (lambda v: 0 < v < np.inf, "must be positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < np.inf, "must be non-negative and finite")


def _expnoise_lambda(sigma) -> float:
    root = np.sqrt(sigma)
    return float((1.0 + 2.0 * root) / (1.0 + root) ** 2)


# spec name -> family.  A deterministic distortion that keeps the order of
# the intensities exactly takes its signs from the clean values.
FAMILIES = {
    # intensities observed exactly
    "identity": Family(None, None, lambda _, z, rng: z.copy(), noisy=False, clean_signs=True,
                       closed_form=lambda _: 1.0),
    # saturating deterministic distortion z -> tanh(alpha * z)
    "tanh": Family("alpha", _POSITIVE, lambda alpha, z, rng: np.tanh(alpha * z),
                   noisy=False, clean_signs=True),
    # additive exponential noise with variance sigma (mean sqrt(sigma))
    "expnoise": Family(
        "sigma", _NON_NEGATIVE,
        lambda sigma, z, rng: z + sample_exponential(np.sqrt(sigma), rng, size=z.shape),
        noisy=True, clean_signs=False, closed_form=_expnoise_lambda,
    ),
    # photon-count readout z -> Poisson(z / eta); larger eta is noisier
    "poisson": Family("eta", _POSITIVE, lambda eta, z, rng: rng.poisson(z / eta).astype(float),
                      noisy=True, clean_signs=False),
    # additive one-sided Gaussian noise z -> z + sigma * max(g, 0)
    "clipgauss": Family(
        "sigma", _NON_NEGATIVE,
        lambda sigma, z, rng: z + sigma * np.maximum(rng.standard_normal(z.shape), 0.0),
        noisy=True, clean_signs=False,
    ),
}


@dataclass(frozen=True)
class Model:
    """A measurement model: a family of :data:`FAMILIES` and its parameter
    value (None for a family that takes none), kept exactly as given."""

    family: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown measurement model {self.family!r}")
        entry = FAMILIES[self.family]
        if entry.param is None:
            if self.value is not None:
                raise ValueError(f"model {self.family!r} takes no parameter")
        elif self.value is None or not entry.rule[0](self.value):
            raise ValueError(f"{entry.param} {entry.rule[1]}")


def parse_model(spec: str) -> Model:
    """Parse a model spec string.

    Grammar: a name of :data:`FAMILIES`, followed by ``:<param>=<float>``
    for a family that takes a parameter: ``identity``, ``tanh:alpha=<f>``,
    ``expnoise:sigma=<f>``, ``poisson:eta=<f>``, ``clipgauss:sigma=<f>``.
    """
    text = spec.strip().lower()
    name, _, arg = text.partition(":")
    if name not in FAMILIES:
        raise ValueError(f"unknown measurement model {name!r} in {spec!r}")
    param = FAMILIES[name].param
    if param is None:
        if arg:
            raise ValueError(f"model {name!r} takes no parameter, got {spec!r}")
        return Model(name)
    key, _, value = arg.partition("=")
    if key != param or not value:
        raise ValueError(f"expected {name}:{param}=<float>, got {spec!r}")
    try:
        return Model(name, float(value))
    except ValueError as exc:
        raise ValueError(f"bad parameter in model spec {spec!r}: {exc}") from None


def format_model(model: Model) -> str:
    """Inverse of :func:`parse_model`: the parameter in ``:g`` form where
    that parses back to the same value, else its ``repr``."""
    param = FAMILIES[model.family].param
    if param is None:
        return model.family
    text = f"{model.value:g}"
    if float(text) != model.value:
        text = repr(model.value)
    return f"{model.family}:{param}={text}"


def checked_intensities(b) -> np.ndarray:
    """``b`` as a float array, if every entry is finite and non-negative."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("intensities must be finite and non-negative")
    return b


def apply_model(model: Model, z, rng: Optional[np.random.Generator] = None):
    """Push intensities through the measurement model."""
    z = checked_intensities(z)
    entry = FAMILIES[model.family]
    if entry.noisy and rng is None:
        raise ValueError(f"model {format_model(model)!r} needs an rng")
    return entry.distort(model.value, z, rng)


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
    model: Model,
    b,
    pairs: tuple[slice, slice],
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Push clean intensities through the model and keep one bit per pair.

    ``pairs`` places the two members of each pair in ``b`` (see
    :func:`~onebitphase.sensing.build_paired_ensemble`).  The model is applied
    to family 1 and then to family 2, and ``(b_obs, y)`` are the observed
    intensities, in the order of ``b``, and the sign of each pair
    difference.  A model whose :data:`FAMILIES` entry sets ``clean_signs``
    (a deterministic strictly increasing distortion, which cannot change any
    pair comparison) takes its signs from the clean intensities (identical
    by monotonicity, and immune to float saturation).
    """
    b = np.asarray(b, dtype=float)
    if not 2 * b[pairs[0]].size == 2 * b[pairs[1]].size == b.size:
        raise ValueError(f"pairs {pairs} do not split {b.shape} intensities into two families")
    b_obs = np.empty_like(b)
    for family in pairs:
        b_obs[family] = apply_model(model, b[family], rng)
    signed = b if FAMILIES[model.family].clean_signs else b_obs
    return b_obs, quantize(signed[pairs[0]], signed[pairs[1]])


def lambda_closed_form(model: Model) -> Optional[float]:
    """Exact channel constant where the family's entry has one: identity
    and exponential noise."""
    closed_form = FAMILIES[model.family].closed_form
    return None if closed_form is None else closed_form(model.value)


def lambda_monte_carlo(
    model: Model, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate (value, standard error) of the channel constant.

    Draws intensity pairs from the exact Exp(1) law of unit-signal
    measurements and averages sign(theta(E1) - theta(E2)) * (E1 - E2), with
    theta drawn by :func:`apply_model` on E1 and then on E2 and the sign
    taken by :func:`quantize`.  Under the Poisson model these are two
    conditional Poisson counts, so their difference follows the exact
    Skellam law.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = substream(seed, "lambda-mc")
    e1 = sample_exponential(1.0, rng, size=samples)
    e2 = sample_exponential(1.0, rng, size=samples)
    t1 = apply_model(model, e1, rng)
    t2 = apply_model(model, e2, rng)
    stat = quantize(t1, t2) * (e1 - e2)
    estimate = float(np.mean(stat))
    std_error = float(np.std(stat, ddof=1) / np.sqrt(samples))
    return estimate, std_error
