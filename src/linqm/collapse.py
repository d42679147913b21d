"""Smooth-collapse schemes and the outcome-frequency test.

Each run evolves per-branch weights beta(k, t); the observable quantities
are X(k, t) = |beta(k)|^2 / sum_j |beta(j)|^2.  Two linear schemes evolve
beta without ever receiving the state coefficients (the scheme functions
take only the run generator and the shape), so their X traces are
bit-identical across different coefficient vectors at the same seed.
The nonlinear scheme is a bounded zero-drift martingale on the weight
simplex with absorption at the vertices: absorption frequency at vertex k
equals the initial weight |a_k|^2, which is what passes the frequency test.

Determinism: linear schemes draw from one generator per run, seeded by
SeedSequence(master).spawn(run); the nonlinear scheme evolves all runs in
lockstep from SeedSequence(master), drawing a chunk of pair choices and
signs at a time.  It evaluates each chunk a block of steps at a time, yet
every weight equals the one a step-at-a-time loop over the same draws
computes, bit for bit (see ``_run_ruin``).  Its integer draws are made at
32 bits, in slabs of one stream narrowed into small-integer arrays: for a
range below 2**32 numpy's bounded draw reads one 32-bit stream whatever
the output dtype, and keeps nothing between calls but the generator's own
state, so consecutive slabs give the values, and the generator state after
them, of one default-dtype draw, with one slab's temporary.  Identical
configurations give byte-identical outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# scipy.special's chi-square tail, in plain Python: importing scipy.special
# would cost more start-up time and memory than the rest of a collapse run's
# imports, so no collapse run loads scipy.
from .chi2 import chdtrc

ABSORPTION_EPS = 1e-6

LINEAR_SCHEMES = ("linear_drift", "linear_noise")
SCHEMES = LINEAR_SCHEMES + ("nonlinear_ruin",)

# Size caps: the schemes hold arrays of runs by outcomes, a linear run one
# of steps by outcomes, and a ruin sub-block one of about 2 * _RUIN_BLOCK
# (steps x outcomes x rows) cells, but at least one step of every live run;
# the work grows as runs x steps.  At the outcome caps an accepted
# configuration peaked at 240 MB (linear, 31,250 steps) to 710 MB (ruin,
# 100,000 runs, over its first 256-step chunk).  A configuration past these
# is refused rather than left to fail inside numpy.
MAX_RUNS = 100_000
MAX_STEPS = 1_000_000
MAX_RUN_STEPS = 2 * 10**9
MAX_OUTCOMES = 128
MAX_OUTCOME_STEPS = 4 * 10**6


@dataclass(frozen=True)
class CollapseConfig:
    amplitudes: tuple[complex, ...]
    scheme: str
    runs: int
    seed: int
    dt: float = 1e-2
    steps: int = 10_000
    record_traces: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        norm = sum(abs(a) ** 2 for a in self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:  # also refuses NaN
            raise ValueError("amplitudes must have unit norm")
        if self.runs < 1 or self.steps < 1 or not 0 < self.dt < np.inf:
            raise ValueError("runs, steps and dt must be positive, dt finite")
        if self.runs > MAX_RUNS or self.steps > MAX_STEPS:
            raise ValueError(f"runs must be at most {MAX_RUNS:,} and steps "
                             f"at most {MAX_STEPS:,}")
        if self.runs * self.steps > MAX_RUN_STEPS:
            raise ValueError(f"runs x steps must be at most {MAX_RUN_STEPS:,}")
        if self.n < 2:  # one outcome leaves the chi-square verdict nothing to check
            raise ValueError(f"at least 2 outcomes, got {self.n}")
        if self.n > MAX_OUTCOMES:
            raise ValueError(f"at most {MAX_OUTCOMES} outcomes, got {self.n:,}")
        if self.n * self.steps > MAX_OUTCOME_STEPS:
            raise ValueError(f"outcomes x steps must be at most {MAX_OUTCOME_STEPS:,}")

    @property
    def n(self) -> int:
        return len(self.amplitudes)

    @staticmethod
    def from_probs(probs: Sequence[float], scheme: str, runs: int, seed: int,
                   **kw) -> "CollapseConfig":
        total = float(sum(probs))
        if total <= 0 or not all(0 <= p < np.inf for p in probs):
            raise ValueError("probabilities must be finite, non-negative, not all zero")
        amps = tuple(complex(np.sqrt(p / total)) for p in probs)
        return CollapseConfig(amps, scheme, runs, seed, **kw)

    def to_json_obj(self) -> dict:
        return {
            "scheme": self.scheme,
            "probs": [abs(a) ** 2 for a in self.amplitudes],
            "runs": self.runs,
            "seed": self.seed,
            "dt": self.dt,
            "steps": self.steps,
        }


@dataclass
class RunTrace:
    """Full per-step weights for one recorded run."""

    beta: np.ndarray   # (steps+1, n)
    x: np.ndarray      # (steps+1, n), each row sums to one
    winner: int | None
    absorbed_step: int | None


@dataclass
class CollapseSummary:
    scheme: str
    n: int
    runs: int
    winner_counts: list[int]
    nonconverged: int

    @property
    def frequencies(self) -> list[float]:
        done = sum(self.winner_counts)
        if done == 0:
            return [0.0] * self.n
        return [c / done for c in self.winner_counts]


def _x_of_beta(beta: np.ndarray) -> np.ndarray:
    mags = np.abs(beta) ** 2
    return mags / mags.sum(axis=-1, keepdims=True)


def _first_absorbed(x: np.ndarray) -> int | None:
    # Column by column: x.max(axis=1) runs one short loop per step.  A
    # maximum rounds nothing, so the order cannot change the result.
    top = functools.reduce(np.maximum, x.T)
    hit = np.nonzero(top >= 1.0 - ABSORPTION_EPS)[0]
    return int(hit[0]) if hit.size else None


def _linear_drift_beta(rng: np.random.Generator, n: int, steps: int,
                       dt: float) -> np.ndarray:
    """Deterministic exponential growth with per-run random rates."""
    rates = rng.standard_normal(n)
    t = np.arange(steps + 1)[:, None] * dt
    return np.exp(rates[None, :] * t)


def _linear_noise_beta(rng: np.random.Generator, n: int, steps: int,
                       dt: float) -> np.ndarray:
    """Multiplicative log-normal noise, independent per branch and step."""
    kicks = rng.standard_normal((steps, n)) * np.sqrt(dt)
    log_beta = np.vstack([np.zeros((1, n)), np.cumsum(kicks, axis=0)])
    return np.exp(log_beta)


_LINEAR_BETA = {"linear_drift": _linear_drift_beta,
                "linear_noise": _linear_noise_beta}


def _summarize(cfg: CollapseConfig, winners: np.ndarray,
               converged: np.ndarray) -> CollapseSummary:
    counts = np.bincount(winners[converged], minlength=cfg.n).tolist()
    return CollapseSummary(cfg.scheme, cfg.n, cfg.runs, counts,
                           cfg.runs - int(converged.sum()))


def _run_linear(cfg: CollapseConfig) -> tuple[list[RunTrace], CollapseSummary]:
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.runs)
    beta_fn = _LINEAR_BETA[cfg.scheme]
    traces: list[RunTrace] = []
    x_last = np.empty((cfg.runs, cfg.n))
    converged = np.zeros(cfg.runs, dtype=bool)
    for run in range(cfg.runs):
        rng = np.random.default_rng(seeds[run])
        beta = beta_fn(rng, cfg.n, cfg.steps, cfg.dt)
        x = _x_of_beta(beta)
        absorbed = _first_absorbed(x)
        x_last[run], converged[run] = x[-1], absorbed is not None
        if run < cfg.record_traces:
            winner = int(np.argmax(x[-1])) if absorbed is not None else None
            traces.append(RunTrace(beta, x, winner, absorbed))
    return traces, _summarize(cfg, np.argmax(x_last, axis=1), converged)


_RUIN_CHUNK = 256
# Elements in each (steps x rows) array of a sub-block, and in each slab of
# draws.  The float buffer of a sub-block is (steps x outcomes x rows), so
# its step budget counts outcomes: 2 * _RUIN_BLOCK cells whatever n is.  With
# few live rows one sub-block spans the whole chunk, with many it is a
# handful of steps.
_RUIN_BLOCK = 1 << 17
# From this many (rows x coordinates) one np.add per step outruns
# np.cumsum, whose accumulation is a scalar loop.
_RUIN_WIDE = 1024


def _ruin_step(w: np.ndarray, i, j, sign: np.ndarray, dt: float) -> np.ndarray:
    """One exact step on rows ``w`` (updated in place); True where it absorbs."""
    rows = np.arange(w.shape[0])
    wi, wj = w[rows, i], w[rows, j]
    transfer = sign * np.minimum(dt, np.minimum(wi, wj))
    wi = np.clip(wi + transfer, 0.0, 1.0)  # shed one-ulp overshoot at vertex hits
    wj = np.clip(wj - transfer, 0.0, 1.0)
    w[rows, i], w[rows, j] = wi, wj
    return np.maximum(wi, wj) >= 1.0 - ABSORPTION_EPS


def _draw(rng: np.random.Generator, low: int, high: int, shape: tuple[int, int],
          dtype: np.dtype | type) -> np.ndarray:
    """``rng.integers(low, high, shape)`` as ``dtype``: the same values, and
    the same generator state after, drawn at 32 bits in slabs of
    ``_RUIN_BLOCK`` and narrowed into the output.  A bounded 32-bit draw
    reads one ``next_uint32`` stream and keeps no buffer of its own between
    calls, so consecutive slabs continue one whole draw value for value."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for s in range(0, flat.size, _RUIN_BLOCK):
        part = flat[s:s + _RUIN_BLOCK]
        part[...] = rng.integers(low, high, size=part.size, dtype=np.int32)
    return out


def _ruin_signs(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Steps of +-1 as int8: the values, and the generator state after, of
    ``rng.choice((-1.0, 1.0), shape)``, which draws these same integers and
    indexes by them, without its float64 temporary.  The integers are drawn
    at 32 bits in slabs of one stream (``_draw``), the same stream as
    choice's int64 draw, and narrowed as they are drawn."""
    signs = _draw(rng, 0, 2, shape, np.int8)
    signs += signs
    signs -= 1
    return signs


def _ruin_block(w: np.ndarray, live: np.ndarray, signs: np.ndarray,
                pairs: tuple[np.ndarray, np.ndarray] | None, dt: float,
                traced: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance rows ``w`` (in place) through one sub-block of steps.

    ``signs`` and the pair selections ``pairs`` (None: always (0, 1)) are
    small-integer arrays shaped (steps, rows).  Returns each row's
    absorbing step offset (-1 if none; ``live`` is cleared there) and the
    weights after every step of the first ``traced`` rows, shaped
    (steps, traced, n).

    Each round accumulates its rows' remaining steps in one time-major
    (steps+1, n, rows) buffer, keeps it up to each row's first step that is
    not interior, takes that step with ``_ruin_step`` and sends the row
    into the next round from the step after it.
    """
    steps, m = signs.shape
    n = w.shape[1]
    hit = np.full(m, -1, dtype=np.int64)
    path = np.empty((steps, traced, n))
    if pairs is None:  # each step moves +-s on coordinate 0, -+s on 1
        d = np.array([[1], [-1]], dtype=np.int8)
        touched = np.ones((1, 2, 1), dtype=bool)
    else:
        coords = np.arange(n, dtype=pairs[0].dtype)[:, None]
    rows, first = np.arange(m), np.zeros(m, dtype=np.int64)
    while rows.size:
        t0 = int(first.min())
        span, width = steps - t0, rows.size
        cols = slice(None) if width == m else rows  # the opening round slices
        if pairs is not None:  # d is +1 on i and -1 on j; i != j
            d = (pairs[1][t0:, cols][:, None] == coords).view(np.int8)
            touched = pairs[0][t0:, cols][:, None] == coords
            np.subtract(touched.view(np.int8), d, out=d)
            np.not_equal(d, 0, out=touched)
        c = np.empty((span + 1, n, width))
        c[0] = w[cols].T
        # No increment on steps before a row's restart point, nor on pairs
        # with a coordinate at exactly 0.0: they move by +-0 from then on.
        before = np.arange(span)[:, None] < first - t0 if t0 < first.max() else None
        idle = before
        dead = (c[0] == 0.0) & live[rows]
        if dead.any():
            dead_pair = np.logical_or.reduce(touched & dead, axis=1)
            idle = dead_pair if idle is None else idle | dead_pair
        q = signs[t0:, cols] * live[rows].view(np.int8)
        if idle is not None:
            q *= ~idle
        # this round's own d is scaled in place; the two-outcome d broadcasts
        np.multiply(np.multiply(q[:, None], d, out=None if pairs is None else d),
                    dt, out=c[1:])
        # Sequential accumulation: each row is the one before plus +-dt or
        # +-0, so it equals the stepwise w + s and w - s bit for bit.
        if width * n < _RUIN_WIDE:
            np.cumsum(c, axis=0, out=c)
        else:
            for t in range(span):
                np.add(c[t], c[t + 1], out=c[t + 1])
        # Interior step: both touched coordinates at least dt, so it moves
        # exactly +-dt and needs no clip.  A live row's untouched
        # coordinates stay below 1 - eps, so any crossing absorbs.
        bad = np.logical_or.reduce((c[:-1] < dt) & touched, axis=1)
        if idle is not None:
            bad &= ~idle
        event = bad | np.logical_or.reduce(c[1:] >= 1.0 - ABSORPTION_EPS, axis=1)
        w[cols] = c[-1].T
        if traced:
            tc = np.searchsorted(rows, traced)
            vals = c[1:, :, :tc].transpose(0, 2, 1)
            if before is not None:
                vals = np.where(before[:, :tc, None], path[t0:, rows[:tc]], vals)
            path[t0:, rows[:tc]] = vals
        ev = np.nonzero(np.logical_or.reduce(event, axis=0) & live[rows])[0]
        at = event[:, ev].argmax(axis=0)
        replay = bad[at, ev]
        # the first event absorbs: clip that step's state, as _ruin_step does
        ab, ab_at = ev[~replay], at[~replay]
        w[rows[ab]] = np.clip(c[ab_at + 1, :, ab], 0.0, 1.0)
        # the first event is a boundary step: take it exactly
        rp, rp_at = ev[replay], at[replay]
        state = c[rp_at, :, rp]
        i_rp = 0 if pairs is None else pairs[0][rp_at + t0, rows[rp]]
        j_rp = 1 if pairs is None else pairs[1][rp_at + t0, rows[rp]]
        newly = _ruin_step(state, i_rp, j_rp, signs[rp_at + t0, rows[rp]], dt)
        w[rows[rp]] = state
        stops = np.concatenate([ab, rp[newly]])
        stop_at = np.concatenate([ab_at, rp_at[newly]]) + t0
        hit[rows[stops]] = stop_at
        live[rows[stops]] = False
        if traced:  # a row that goes on is rewritten from the next step
            for r, t in zip(rows[ev], at + t0):
                if r < traced:
                    path[t:, r] = w[r]
        more = ~newly & (rp_at + t0 + 1 < steps)
        rows, first = rows[rp[more]], rp_at[more] + t0 + 1
    return hit, path


def _run_ruin(cfg: CollapseConfig) -> tuple[list[RunTrace], CollapseSummary]:
    """Pairwise-transfer martingale on the weight simplex.

    Per step each live run picks a pair (i, j) and moves +-s between them
    with s = min(dt, w_i, w_j); the sign is symmetric, so every coordinate
    is a bounded martingale whatever the pair selection, and by optional
    stopping the absorption probability at vertex k is the starting weight
    |a_k|^2.  The cap makes coordinates die at exactly zero, so runs end
    on an exact vertex.  Absorbed runs are compacted away between chunks;
    the evolution is a deterministic function of the configuration.

    Evaluation is blocked (``_ruin_block``), and bit-identical to taking
    the steps one at a time:
    - a step whose pair has both weights at least dt moves exactly +-dt
      and clips nothing; a pair with a weight at exactly 0.0 moves by +-0;
    - so a block of such steps is a cumulative sum of +-dt and +-0
      increments from the starting weights, accumulated in step order,
      and ``x + (-dt) == x - dt`` and ``x + (+-0.0) == x`` in IEEE
      arithmetic;
    - an absorbing step is clipped to [0, 1], as the step rule does;
    - any other (boundary) step is taken by the step rule itself, and the
      row's block resumes after it.
    The draws take the same values from the stream, in the same order, as
    a stepwise loop, so the summary and every recorded trace are unchanged
    byte for byte.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n, runs = cfg.n, cfg.runs
    start = np.array([abs(a) ** 2 for a in cfg.amplitudes])
    w_final = np.tile(start, (runs, 1))
    absorbed_step = np.full(runs, -1, dtype=np.int64)

    initially_done = w_final.max(axis=1) >= 1.0 - ABSORPTION_EPS
    absorbed_step[initially_done] = 0

    alive = np.nonzero(~initially_done)[0]
    w = w_final[alive]

    k_rec = min(cfg.record_traces, runs)
    rec = [w_final[:k_rec, None].copy()] if k_rec else []

    step = 0
    while step < cfg.steps and alive.size:
        chunk = min(_RUIN_CHUNK, cfg.steps - step)
        m = alive.size
        pairs = None  # two outcomes: always the pair (0, 1)
        if n > 2:
            idx = np.min_scalar_type(-2 * n)  # holds i + offset < 2n
            i_sel = _draw(rng, 0, n, (chunk, m), idx)
            j_sel = _draw(rng, 1, n, (chunk, m), idx)
            j_sel += i_sel
            j_sel -= (j_sel >= n) * idx.type(n)  # (i + offset) mod n
            pairs = (i_sel, j_sel)
        signs = _ruin_signs(rng, (chunk, m))
        live = np.ones(m, dtype=bool)  # compaction keeps only live rows
        traced = int(np.searchsorted(alive, k_rec))  # alive is sorted
        block = max(1, min(chunk, 2 * _RUIN_BLOCK // (m * n)))
        for t0 in range(0, chunk, block):
            t1 = min(t0 + block, chunk)
            hit, path = _ruin_block(
                w, live, signs[t0:t1],
                None if pairs is None else (pairs[0][t0:t1], pairs[1][t0:t1]),
                cfg.dt, traced)
            absorbed_step[alive[hit >= 0]] = step + t0 + 1 + hit[hit >= 0]
            if k_rec:
                seg = np.repeat(w_final[:k_rec, None], t1 - t0, axis=1)
                seg[alive[:traced]] = path.transpose(1, 0, 2)
                rec.append(seg)
        step += chunk
        w_final[alive] = w
        alive = alive[live]
        w = w[live]

    winners = np.argmax(w_final, axis=1)
    converged = absorbed_step >= 0
    path = np.concatenate(rec, axis=1) if k_rec else None  # (k_rec, recorded_steps, n)
    traces = [RunTrace(np.sqrt(path[run]), path[run],
                       int(winners[run]) if converged[run] else None,
                       int(absorbed_step[run]) if converged[run] else None)
              for run in range(k_rec)]
    return traces, _summarize(cfg, winners, converged)


def run_scheme(cfg: CollapseConfig) -> tuple[list[RunTrace], CollapseSummary]:
    """Simulate the configured scheme; traces cover the first record_traces runs."""
    if cfg.scheme in LINEAR_SCHEMES:
        return _run_linear(cfg)
    return _run_ruin(cfg)


# ----------------------------------------------------------------------
# frequency test
# ----------------------------------------------------------------------
@dataclass
class BornReport:
    frequencies: list[float]
    targets: list[float]
    chi2: float | None  # None when no run absorbed
    p_value: float
    passed: bool


# 2 * scipy.special.ndtr(-3.0), the two-sided normal tail beyond three
# sigma, as the numpy float it was computed as (math.erfc(3 / sqrt(2)) is
# a different float).  Being a numpy float, it makes a failing verdict a
# numpy.bool, which the JSON report refuses; the Python bool that mends that
# moves a pinned report, so it waits for the declared re-pin of ROADMAP
# item 1.
THREE_SIGMA_P = np.float64(0.0026997960632601866)


def born_test(summary: CollapseSummary,
              amplitudes: Sequence[complex]) -> BornReport:
    """Chi-square comparison of winner frequencies against |a_k|^2.

    Pass at the three-sigma level: p-value at least the two-sided normal
    tail mass beyond three sigma.  Zero-probability outcomes must simply
    never win.
    """
    targets = [abs(a) ** 2 for a in amplitudes]
    done = sum(summary.winner_counts)
    freqs = summary.frequencies
    if done == 0:
        return BornReport(freqs, targets, None, 0.0, False)
    chi2 = 0.0
    dof = 0
    impossible_hit = False
    for count, p in zip(summary.winner_counts, targets):
        if p <= 0.0:
            impossible_hit |= count > 0
            continue
        expected = done * p
        chi2 += (count - expected) ** 2 / expected
        dof += 1
    dof = max(dof - 1, 0)
    if dof == 0:
        p_value = 1.0
        passed = not impossible_hit
    else:
        p_value = float(chdtrc(dof, chi2))
        passed = (p_value >= THREE_SIGMA_P) and not impossible_hit
    return BornReport(freqs, targets, float(chi2), p_value, passed)
