"""Dispatch optimizer: Basin Hopping around a Nelder-Mead local search.

Both minimize an objective over a real vector; the dispatch step's is
``dispatch.StepObjective``.  The objective returns a float or an
``(of, feasible)`` pair, where a bare float counts as feasible.  Nelder-Mead
counts its evaluations in one place, which ends the search once
``NelderMeadSettings.maxfev`` of them are spent, and reports whether the
point it returns is feasible.

Basin Hopping: each iteration perturbs the incumbent uniformly within the
current step size, runs a Nelder-Mead refinement of at most
``NelderMeadSettings.maxfev`` evaluations and accepts the result via the
Metropolis criterion (worsening moves pass with probability
exp(-delta/T)).  Every ``ADJUST_INTERVAL`` (10) iterations the step size is
scaled to steer the acceptance rate toward ``TARGET_ACCEPTANCE`` (50 %):
divided by ``ADJUST_FACTOR`` (0.9) when acceptance was above target (bolder
exploration), multiplied when below.  ``bounds=None`` is the unbounded box.

``n_iter`` is the number of iterations run; with ``patience`` set it is a
cap instead.  The search then stops before the next iteration once
``patience`` consecutive iterations have changed neither the global best nor
the best feasible candidate (the stall rule of Wales & Doye 1997), since a
further random perturbation of a long-unbeaten incumbent rarely pays for its
Nelder-Mead budget.  Every record, ``n_evals`` and the returned solution keep
their meaning; the run only has fewer iterations.

Its random draws come from one seeded stream, ``PCG64``, which draws the
same bits as ``numpy.random.default_rng(seed)`` without importing
``numpy.random``, whose first import in a process loads some 15 modules
(``secrets`` and ``hmac`` among them) that nothing else here uses.

The candidate objective series and the running global best (minimum over all
candidates including the start point) are logged per iteration.  The returned
solution is the best candidate by feasibility first, then objective; the
global-best log column is the unconditional minimum and is therefore
monotone non-increasing.
"""

import math
import numbers
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ._build import load_loops
from .errors import ConfigurationError

__all__ = [
    "FlexibilityRequest", "NelderMeadSettings",
    "BasinHoppingConfig", "IterationRecord", "BasinHoppingResult",
    "PCG64", "metropolis_accept", "adapt_step_size", "nelder_mead",
    "basin_hopping",
    "TARGET_ACCEPTANCE", "ADJUST_INTERVAL", "ADJUST_FACTOR",
]

# Basin Hopping step-size adaptation (see the module docstring)
TARGET_ACCEPTANCE = 0.5
ADJUST_INTERVAL = 10
ADJUST_FACTOR = 0.9


@dataclass(frozen=True)
class FlexibilityRequest:
    """Requested sustained change of the PCC operating point."""
    dp_kw: float
    dq_kvar: float

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (self.dp_kw, self.dq_kvar)):
            raise ConfigurationError(
                f"flexibility request must be finite numbers, got "
                f"dp_kw={self.dp_kw!r}, dq_kvar={self.dq_kvar!r}")


# ---------------------------------------------------------------------------
# random stream

_pcg64_fill = load_loops().pcg64_fill

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed):
    """The four 64-bit words numpy's ``SeedSequence(seed)`` generates for
    ``PCG64``: the LCG's start state and stream, high word first.

    A Python replica of numpy's mixing (``bit_generator.pyx``): the seed as
    32-bit words, least significant first, hashed into a pool of four words,
    which then gives eight 32-bit output words, two per 64-bit word.
    """
    entropy = [seed >> shift & _MASK32
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """A seeded PCG64 stream that draws the same bits as
    ``numpy.random.default_rng(seed)`` (O'Neill 2014), for the two draws
    Basin Hopping makes.

    ``seed`` is an integer >= 0 or None; None takes 16 bytes of
    ``os.urandom`` as the seed.  Seeding replays numpy's ``SeedSequence``
    here; the draws run compiled (``pcg64_fill`` in ``_loops.c``), one call
    per vector, on the state held in ``state``.
    """

    def __init__(self, seed=None):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ConfigurationError(
                f"seed must be None or an integer >= 0, got {seed!r}")
        s_hi, s_lo, i_hi, i_lo = _seed_words(int(seed))
        # numpy's pcg64_set_seed: an odd increment from the stream word; the
        # zero state steps once, takes the start state added and steps again
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc & _MASK128
        self.state = bytearray(struct.pack(
            "=4Q", state >> 64, state & _MASK64, inc >> 64, inc & _MASK64))

    def uniform(self, low, high, size):
        """``size`` floats from [low, high): low + (high - low) * u each."""
        out = np.empty(size)
        _pcg64_fill(self.state, out, low, high)
        return out

    def random(self):
        """One float from [0, 1)."""
        return float(self.uniform(0.0, 1.0, 1)[0])


# ---------------------------------------------------------------------------
# acceptance and step adaptation

def metropolis_accept(delta_y, temperature, rng):
    """Accept improvement unconditionally; worsening with p = exp(-delta/T).

    Draws from ``rng`` only when ``delta_y > 0`` so that acceptance of
    improving moves never consumes random state.
    """
    if delta_y <= 0.0:
        return True
    if temperature <= 0.0:
        return False
    return rng.random() < math.exp(-delta_y / temperature)


def adapt_step_size(step_size, n_accepted, interval):
    """Steer acceptance toward ``TARGET_ACCEPTANCE`` by rescaling the step size."""
    rate = n_accepted / interval
    if rate > TARGET_ACCEPTANCE:
        return step_size / ADJUST_FACTOR
    if rate < TARGET_ACCEPTANCE:
        return step_size * ADJUST_FACTOR
    return step_size


# ---------------------------------------------------------------------------
# Nelder-Mead local search

@dataclass(frozen=True)
class NelderMeadSettings:
    """Tolerances and evaluation budget of one Nelder-Mead call.

    ``maxfev`` counts the initial simplex: in d dimensions its d + 1
    vertices come first, so on the bundled 38-plant cell the default 40 is
    the simplex plus one reflection.  A larger budget there bought no better
    committed dispatch on either acceptance run.
    """
    fatol: float = 1e-9
    xatol: float = 1e-9
    maxfev: int = 40

    def __post_init__(self):
        # each check states what must hold, so that NaN fails it
        if not (isinstance(self.maxfev, numbers.Integral) and self.maxfev >= 1):
            raise ConfigurationError(
                f"nm maxfev must be >= 1 and an integer, got {self.maxfev!r}")
        if not self.fatol >= 0.0:
            raise ConfigurationError(f"nm fatol must be >= 0, got {self.fatol}")
        if not self.xatol >= 0.0:
            raise ConfigurationError(f"nm xatol must be >= 0, got {self.xatol}")


def _box(bounds, size):
    """``bounds`` as a ``(size, 2)`` float array; None is the unbounded box."""
    if bounds is None:
        return np.tile([-math.inf, math.inf], (size, 1))
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (size, 2):
        raise ConfigurationError(
            f"bounds shape {bounds.shape} does not match vector size {size}")
    return bounds


def _scored(r):
    """An objective's return value ``r`` as ``(of, feasible)``."""
    return (float(r[0]), bool(r[1])) if isinstance(r, tuple) else (float(r), True)


class _BudgetSpent(Exception):
    """Ends a Nelder-Mead search whose evaluation budget is used up."""


def nelder_mead(f, x0, *, bounds=None, scale=0.1, settings=NelderMeadSettings()):
    """Downhill-simplex minimization with clamp-at-evaluation box handling.

    The initial simplex displaces each coordinate of ``x0`` by ``scale``.
    The simplex itself may wander outside ``bounds``; every objective
    evaluation sees the clamped point and the returned minimizer is clamped.
    Returns ``(x_best, f_best, n_evals, feasible_best)``: the first strict
    minimum over the evaluated points, so never a point worse than the start
    point, and its feasibility flag (False if no point scored below inf).
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if d == 0:
        raise ConfigurationError("cannot optimize a zero-dimensional vector")
    lo, hi = _box(bounds, d).T

    x_best, f_best, n_evals, feasible_best = None, math.inf, 0, False

    def evaluate(x):
        nonlocal x_best, f_best, n_evals, feasible_best
        # the one budget check: the evaluation past maxfev ends the search
        if n_evals >= settings.maxfev:
            raise _BudgetSpent
        xe = x.clip(lo, hi)
        fx, feasible = _scored(f(xe))
        n_evals += 1
        if fx < f_best:
            x_best, f_best, feasible_best = xe, fx, feasible
        return fx

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    try:
        # initial simplex: start point plus one displaced vertex per dimension
        simplex = [x0.copy()]
        fvals = [evaluate(x0)]
        for i in range(d):
            v = x0.copy()
            v[i] += scale
            simplex.append(v)
            fvals.append(evaluate(v))
        simplex = np.array(simplex)
        fvals = np.array(fvals)

        while True:
            order = np.argsort(fvals, kind="stable")
            simplex = simplex[order]
            fvals = fvals[order]

            if (fvals[-1] - fvals[0] <= settings.fatol
                    and np.max(np.abs(simplex[1:] - simplex[0])) <= settings.xatol):
                break

            centroid = simplex[:-1].mean(axis=0)
            xr = centroid + alpha * (centroid - simplex[-1])
            fr = evaluate(xr)

            if fr < fvals[0]:
                xe_ = centroid + gamma * (xr - centroid)
                fe = evaluate(xe_)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe_, fe
                else:
                    simplex[-1], fvals[-1] = xr, fr
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = centroid + rho * (xr - centroid)       # outside contraction
                else:
                    xc = centroid - rho * (centroid - simplex[-1])  # inside
                fc = evaluate(xc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    # shrink toward the best vertex
                    for i in range(1, d + 1):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        fvals[i] = evaluate(simplex[i])
    except _BudgetSpent:
        pass
    return x_best, f_best, n_evals, feasible_best


# ---------------------------------------------------------------------------
# Basin Hopping

@dataclass(frozen=True)
class BasinHoppingConfig:
    temperature: float = 0.5
    n_iter: int = 50
    step_size: float = 1.0
    seed: int | None = None
    nm: NelderMeadSettings = field(default_factory=NelderMeadSettings)

    def __post_init__(self):
        # each check states what must hold, so that NaN fails it
        if not 0.0 <= self.temperature < math.inf:
            raise ConfigurationError(
                f"temperature must be >= 0 and finite, got {self.temperature!r}")
        if not (isinstance(self.n_iter, numbers.Integral) and self.n_iter >= 0):
            raise ConfigurationError(
                f"n_iter must be an integer >= 0, got {self.n_iter!r}")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigurationError("step_size must be finite and > 0")
        if self.seed is not None and not (
                isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigurationError(
                f"seed must be None or an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    of_local: float            # candidate objective produced this iteration
    of_global_best: float      # running min over all candidates so far
    step_size: float           # step size in force when the move was drawn
    accepted: bool


@dataclass
class BasinHoppingResult:
    x: np.ndarray
    of: float
    feasible: bool
    iterations: list           # IterationRecord per iteration (row 0 = start)
    n_evals: int
    n_accepted: int

    @property
    def acceptance_rate(self):
        n_moves = len(self.iterations) - 1
        return self.n_accepted / n_moves if n_moves else 0.0


def basin_hopping(f, x0, config: BasinHoppingConfig, *, bounds=None, rng=None,
                  patience=None):
    """Global search over ``f`` starting from (and warm-started by) ``x0``.

    ``f`` maps a vector to an objective value, optionally paired with a
    network-feasibility flag.  The start point is evaluated as iteration 0 and
    becomes the first incumbent; the first candidate of a warm-started run is
    therefore refined from the previous solution, not from scratch.
    ``patience`` (an integer >= 1, or None for no stall stop) ends the search
    after that many iterations in a row without a better candidate.
    ``rng`` is any object with ``uniform(low, high, size)`` and
    ``random()``, such as a numpy ``Generator``; None is
    ``PCG64(config.seed)``.
    """
    if patience is not None and not (
            isinstance(patience, numbers.Integral) and patience >= 1):
        raise ConfigurationError(
            f"patience must be None or an integer >= 1, got {patience!r}")
    if rng is None:
        rng = PCG64(config.seed)

    x0 = np.asarray(x0, dtype=float)
    bounds = _box(bounds, x0.size)
    lo, hi = bounds.T
    x0 = np.clip(x0, lo, hi)

    of0, feas0 = _scored(f(x0))
    n_evals = 1
    incumbent_x, incumbent_of = x0, of0
    of_global_best = of0
    # the point returned: feasible first, then lower objective
    best_x, best_of, best_feasible = x0, of0, feas0

    records = [IterationRecord(0, of0, of0, config.step_size, True)]
    step = config.step_size
    n_accepted_total = 0
    window_accepted = 0
    stalled = 0

    for i in range(1, config.n_iter + 1):
        if patience is not None and stalled >= patience:
            break
        x_try = (incumbent_x + rng.uniform(-step, step, size=x0.size)).clip(lo, hi)

        x_cand, of_cand, evals, cand_feasible = nelder_mead(
            f, x_try, bounds=bounds, scale=max(0.25 * step, 0.01),
            settings=config.nm)
        n_evals += evals

        accepted = metropolis_accept(of_cand - incumbent_of,
                                     config.temperature, rng)
        if accepted:
            incumbent_x, incumbent_of = x_cand, of_cand
            n_accepted_total += 1
            window_accepted += 1

        stalled += 1
        if of_cand < of_global_best:
            of_global_best = of_cand
            stalled = 0
        if (cand_feasible, -of_cand) > (best_feasible, -best_of):
            best_x, best_of, best_feasible = x_cand, of_cand, cand_feasible
            stalled = 0

        records.append(IterationRecord(i, of_cand, of_global_best, step, accepted))

        if i % ADJUST_INTERVAL == 0:
            step = adapt_step_size(step, window_accepted, ADJUST_INTERVAL)
            window_accepted = 0

    return BasinHoppingResult(
        x=best_x, of=best_of, feasible=best_feasible, iterations=records,
        n_evals=n_evals, n_accepted=n_accepted_total)
