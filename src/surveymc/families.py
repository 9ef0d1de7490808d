"""Natural-parameter exponential families and mixed-column layouts.

Each family is defined by its cumulant function g, so that a response with
natural parameter z has density h(y) * exp(y z - g(z)), mean g'(z), and
variance g''(z):

    bernoulli    g(z) = log(1 + e^z)          domain: all reals
    poisson      g(z) = e^z                   domain: all reals
    gaussian     g(z) = sigma^2 z^2 / 2       domain: all reals
    exponential  g(z) = -log(-z)              domain: z < 0

The formulas live only in Family.g, g_prime and g_double_prime (g_and_g_prime,
sample and curvature_sup call them), elementwise and overflow-safe for |z| up
to at least 700 on the domain: bernoulli's g is max(z, 0) + log1p(e^-|z|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInput, check_real, check_rng

__all__ = ["Family", "Block", "CategoryLayout", "FAMILY_NAMES",
           "mean_from_natural", "natural_from_mean", "expit", "logit"]

FAMILY_NAMES = ("bernoulli", "poisson", "gaussian", "exponential")

# exponential family: natural parameters above this value are out of domain
_EXP_DOMAIN_MAX = -1e-8

# inverse mean mapping clamp for means on a domain boundary (0 counts,
# 0/1 proportions)
_MEAN_EPS = 1e-3


def _softplus(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + e^z) from e = e^-|z| <= 1, so nothing overflows."""
    return np.maximum(z, 0.0) + np.log1p(e)


def _logistic(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) from e = e^-|z| <= 1, so nothing overflows."""
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def expit(z) -> np.ndarray:
    """Logistic function, elementwise and overflow-safe for every float64 z;
    subnormal rather than 0 for z in (-745, -708)."""
    z = np.asarray(z, dtype=np.float64)
    return _logistic(z, np.exp(-np.abs(z)))


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse of expit, log(p / (1 - p)), for p in (0, 1); callers clip p.
    On [1e-6, 1 - 1e-6] the absolute error is below 2e-15, but near p = 0.5,
    where the result is near 0, the relative error is about 4e-17 / |p - 0.5|."""
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class Family:
    """One exponential family; gaussian carries its known scale sigma, and
    every other kind has sigma 1.0 whatever is passed."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILY_NAMES:
            raise InvalidInput(f"unknown family {self.kind!r}, expected one of {FAMILY_NAMES}")
        if self.kind != "gaussian":
            object.__setattr__(self, "sigma", 1.0)  # only gaussian has a scale
        else:
            check_real("gaussian sigma", self.sigma, 0.0)
            # g, g' and g'' use sigma^2, which must be a positive float64
            check_real("gaussian sigma^2", float(self.sigma) * float(self.sigma), 0.0)

    # -- domain ---------------------------------------------------------

    def domain_box(self, half_width: float) -> tuple[float, float]:
        """[lo, hi] interval: the clamp box intersected with the domain."""
        if half_width <= 0:
            raise InvalidInput(f"half_width must be positive, got {half_width}")
        if self.kind == "exponential":
            return (-half_width, _EXP_DOMAIN_MAX)
        return (-half_width, half_width)

    def _check_domain(self, z: np.ndarray) -> None:
        if self.kind == "exponential" and np.any(z > _EXP_DOMAIN_MAX):
            raise DomainError("exponential family requires natural parameter < 0")

    # -- cumulant and derivatives ----------------------------------------

    def g(self, z) -> np.ndarray:
        """Cumulant function, elementwise."""
        z = np.asarray(z, dtype=np.float64)
        self._check_domain(z)
        if self.kind == "bernoulli":
            return _softplus(z, np.exp(-np.abs(z)))
        if self.kind == "poisson":
            return np.exp(z)
        if self.kind == "gaussian":
            return 0.5 * self.sigma**2 * z**2
        return -np.log(-z)

    def g_prime(self, z) -> np.ndarray:
        """Mean function g'."""
        z = np.asarray(z, dtype=np.float64)
        self._check_domain(z)
        if self.kind == "bernoulli":
            return expit(z)
        if self.kind == "poisson":
            return np.exp(z)
        if self.kind == "gaussian":
            return self.sigma**2 * z
        return -1.0 / z

    def g_double_prime(self, z) -> np.ndarray:
        """Variance function g''; strictly positive on the domain."""
        z = np.asarray(z, dtype=np.float64)
        self._check_domain(z)
        if self.kind == "bernoulli":
            return expit(z) * expit(-z)
        if self.kind == "poisson":
            return np.exp(z)
        if self.kind == "gaussian":
            return np.full_like(z, self.sigma**2)
        return 1.0 / z**2

    def g_and_g_prime(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(g(z), g_prime(z)), bitwise, from one exponential per entry:
        bernoulli shares e^-|z| between g and g', poisson's g' is its g."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "bernoulli":
            e = np.exp(-np.abs(z))
            return _softplus(z, e), _logistic(z, e)
        if self.kind == "poisson":
            g = self.g(z)
            return g, g
        return self.g(z), self.g_prime(z)

    def curvature_sup(self, beta: float) -> float:
        """sup of g'' over [-beta, beta] within the domain, beta > 0; exact,
        as the solver's beta is at most the clamp half-width, so the clamp box
        never cuts [-beta, beta].  Exponential's g'' = 1/z^2 blows up at the
        domain edge, which iterates touch only transiently (the gradient
        repels them): it is scored on the interior [-beta, -1/max(beta, 1)],
        and edge visits are left to the backtracking line search."""
        if self.kind == "exponential":
            hi = min(-1.0 / max(beta, 1.0), _EXP_DOMAIN_MAX)
            return float(1.0 / hi**2)
        return float(self.g_double_prime(beta if self.kind == "poisson" else 0.0))

    # -- sampling and link mappings ---------------------------------------

    def sample(self, z, rng: np.random.Generator) -> np.ndarray:
        """Draw one response per natural parameter entry, with mean g'(z)."""
        check_rng(rng)
        mean = self.g_prime(z)
        if self.kind == "bernoulli":
            return (rng.random(mean.shape) < mean).astype(np.float64)
        if self.kind == "poisson":
            return rng.poisson(mean, size=mean.shape).astype(np.float64)
        if self.kind == "gaussian":
            return rng.normal(mean, self.sigma, size=mean.shape)
        return rng.exponential(mean, size=mean.shape)

    def mean_to_natural(self, m) -> np.ndarray:
        """Inverse of g', clamping means on the boundary of the mean space.

        Counts below 1e-3 map through log(1e-3); proportions are pinned to
        [1e-3, 1 - 1e-3] before the logit.  Used to put mean-scale
        imputations on the natural-parameter scale.
        """
        m = np.asarray(m, dtype=np.float64)
        if self.kind == "bernoulli":
            return logit(np.clip(m, _MEAN_EPS, 1.0 - _MEAN_EPS))
        if self.kind == "poisson":
            return np.log(np.maximum(m, _MEAN_EPS))
        if self.kind == "gaussian":
            return m / self.sigma**2
        return -1.0 / np.maximum(m, _MEAN_EPS)


@dataclass(frozen=True)
class Block:
    """A contiguous run of columns sharing one family."""

    family: Family
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidInput(f"block must hold at least one column, got {self.count}")


@dataclass(frozen=True)
class CategoryLayout:
    """Ordered column blocks partitioning the L response columns."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvalidInput("layout needs at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @classmethod
    def of(cls, *specs: tuple[str, int], sigma: float = 1.0) -> "CategoryLayout":
        """Build from (kind, count) pairs; gaussian blocks take the shared sigma."""
        return cls(tuple(Block(Family(kind, sigma), count) for kind, count in specs))

    @property
    def n_cols(self) -> int:
        return sum(b.count for b in self.blocks)

    def slices(self) -> list[tuple[Family, slice]]:
        """(family, column slice) per block, in order."""
        out, start = [], 0
        for b in self.blocks:
            out.append((b.family, slice(start, start + b.count)))
            start += b.count
        return out


def mean_from_natural(Z, layout: CategoryLayout) -> np.ndarray:
    """Blockwise mean function g' applied to a natural-parameter matrix."""
    Z = np.asarray(Z, dtype=np.float64)
    M = np.empty_like(Z)
    for fam, sl in layout.slices():
        M[:, sl] = fam.g_prime(Z[:, sl])
    return M


def natural_from_mean(M, layout: CategoryLayout, clamp: float = 30.0) -> np.ndarray:
    """Blockwise inverse mean mapping, clipped into each family's clamp box."""
    M = np.asarray(M, dtype=np.float64)
    Z = np.empty_like(M)
    for fam, sl in layout.slices():
        lo, hi = fam.domain_box(clamp)
        Z[:, sl] = np.clip(fam.mean_to_natural(M[:, sl]), lo, hi)
    return Z
