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
lockstep from SeedSequence(master).  Identical configurations give
byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
# The tail kernels behind scipy.stats' chi2.sf and norm.sf; importing
# scipy.stats itself would take most of the command line's start-up time.
from scipy.special import chdtrc, ndtr

ABSORPTION_EPS = 1e-6

LINEAR_SCHEMES = ("linear_drift", "linear_noise")
SCHEMES = LINEAR_SCHEMES + ("nonlinear_ruin",)


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
    hit = np.nonzero(x.max(axis=1) >= 1.0 - ABSORPTION_EPS)[0]
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


def _run_ruin(cfg: CollapseConfig) -> tuple[list[RunTrace], CollapseSummary]:
    """Pairwise-transfer martingale on the weight simplex.

    Per step each live run picks a pair (i, j) and moves +-s between them
    with s = min(dt, w_i, w_j); the sign is symmetric, so every coordinate
    is a bounded martingale whatever the pair selection, and by optional
    stopping the absorption probability at vertex k is the starting weight
    |a_k|^2.  The cap makes coordinates die at exactly zero, so runs end
    on an exact vertex.  Absorbed runs are compacted away between chunks;
    the evolution is a deterministic function of the configuration.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n, runs = cfg.n, cfg.runs
    start = np.array([abs(a) ** 2 for a in cfg.amplitudes])
    w_final = np.tile(start, (runs, 1))
    absorbed_step = np.full(runs, -1, dtype=np.int64)

    initially_done = w_final.max(axis=1) >= 1.0 - ABSORPTION_EPS
    absorbed_step[initially_done] = 0

    alive = np.nonzero(~initially_done)[0]
    w = w_final[alive].copy()

    k_rec = min(cfg.record_traces, runs)
    rec = [w_final[:k_rec].copy()] if k_rec else []

    step = 0
    while step < cfg.steps and alive.size:
        chunk = min(_RUIN_CHUNK, cfg.steps - step)
        m = alive.size
        if n == 2:
            i_sel = np.zeros((chunk, m), dtype=np.int64)
            j_sel = np.ones((chunk, m), dtype=np.int64)
        else:
            i_sel = rng.integers(0, n, size=(chunk, m))
            j_sel = (i_sel + rng.integers(1, n, size=(chunk, m))) % n
        signs = rng.choice((-1.0, 1.0), size=(chunk, m))
        rows = np.arange(m)
        live = np.ones(m, dtype=bool)  # compaction keeps only live rows
        for t in range(chunk):
            step += 1
            # only columns i != j move, so only they are clipped and tested
            wi = w[rows, i_sel[t]]
            wj = w[rows, j_sel[t]]
            transfer = np.where(live, signs[t] * np.minimum(cfg.dt,
                                                            np.minimum(wi, wj)), 0.0)
            wi = np.clip(wi + transfer, 0.0, 1.0)  # shed one-ulp overshoot at vertex hits
            wj = np.clip(wj - transfer, 0.0, 1.0)
            w[rows, i_sel[t]] = wi
            w[rows, j_sel[t]] = wj
            newly = live & (np.maximum(wi, wj) >= 1.0 - ABSORPTION_EPS)
            if newly.any():
                absorbed_step[alive[newly]] = step
                live &= ~newly
            if k_rec:
                traced = alive < k_rec
                if traced.any():
                    w_final[alive[traced]] = w[traced]
                rec.append(w_final[:k_rec].copy())
        w_final[alive] = w
        alive = alive[live]
        w = w[live]

    winners = np.argmax(w_final, axis=1)
    converged = absorbed_step >= 0
    path = np.stack(rec, axis=1) if k_rec else None  # (k_rec, recorded_steps, n)
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
    chi2: float
    p_value: float
    passed: bool


THREE_SIGMA_P = 2 * ndtr(-3.0)


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
        return BornReport(freqs, targets, float("inf"), 0.0, False)
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
