import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from linqm import chi2, collapse
from linqm.collapse import (ABSORPTION_EPS, _RUIN_CHUNK, CollapseConfig,
                            CollapseSummary, RunTrace, _summarize)


def cfg_probs(probs, scheme, runs, seed, **kw):
    return collapse.CollapseConfig.from_probs(probs, scheme, runs, seed, **kw)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        collapse.CollapseConfig((1.0 + 0j, 1.0 + 0j), "linear_drift", 10, 0)
    with pytest.raises(ValueError):
        cfg_probs([0.5, 0.5], "unknown", 10, 0)
    cfg = cfg_probs([2, 3], "linear_drift", 10, 0)
    assert abs(sum(abs(a) ** 2 for a in cfg.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("probs,kw", [
    ([0.3, float("nan")], {}),
    ([-0.5, 1.5], {}),
    ([float("inf"), 1.0], {}),
    ([0.5, 0.5], {"dt": -1.0}),
    ([0.5, 0.5], {"dt": 0.0}),
    ([0.5, 0.5], {"dt": float("nan")}),
    ([0.5, 0.5], {"dt": float("inf")}),
])
def test_config_rejects_nonfinite_or_negative_inputs(probs, kw):
    with pytest.raises(ValueError):
        cfg_probs(probs, "nonlinear_ruin", 10, 0, **kw)


def test_config_rejects_nan_amplitude():
    with pytest.raises(ValueError):
        collapse.CollapseConfig((complex("nan"), 1.0 + 0j), "nonlinear_ruin", 10, 0)


@pytest.mark.parametrize("outcomes,steps", [
    (20_000, 1_000_000),  # a linear run would hold 149 GiB per array
    (129, 1),  # MAX_OUTCOMES
    (5, 800_001),  # MAX_OUTCOME_STEPS
])
@pytest.mark.parametrize("scheme", collapse.SCHEMES)
def test_config_refuses_outcome_sizes_past_the_caps(outcomes, steps, scheme):
    # refused while the configuration is built, before any scheme runs
    with pytest.raises(ValueError, match="outcomes"):
        cfg_probs([1.0] * outcomes, scheme, 1, 1, steps=steps)


def test_config_accepts_outcome_sizes_at_the_caps():
    cfg_probs([1.0] * collapse.MAX_OUTCOMES, "linear_noise", 1, 1,
              steps=collapse.MAX_OUTCOME_STEPS // collapse.MAX_OUTCOMES)
    cfg_probs([1.0] * 4, "nonlinear_ruin", 1, 1, steps=collapse.MAX_STEPS)


# ----------------------------------------------------------------------
# linear schemes: coefficient blindness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["linear_drift", "linear_noise"])
def test_linear_traces_identical_across_amplitudes(scheme):
    a = cfg_probs([0.5, 0.5], scheme, runs=24, seed=9, steps=1500, record_traces=24)
    b = cfg_probs([0.3, 0.7], scheme, runs=24, seed=9, steps=1500, record_traces=24)
    tr_a, sum_a = collapse.run_scheme(a)
    tr_b, sum_b = collapse.run_scheme(b)
    assert len(tr_a) == len(tr_b) == 24
    for ta, tb in zip(tr_a, tr_b):
        assert np.array_equal(ta.x, tb.x)
        assert np.array_equal(ta.beta, tb.beta)
        assert ta.winner == tb.winner
    assert sum_a.winner_counts == sum_b.winner_counts


def test_linear_frequencies_cannot_satisfy_both_targets():
    # identical frequencies can match at most one probability vector
    cfg_half = cfg_probs([0.5, 0.5], "linear_drift", runs=2000, seed=1, steps=4000)
    _, summary = collapse.run_scheme(cfg_half)
    born_half = collapse.born_test(summary, cfg_half.amplitudes)
    born_skew = collapse.born_test(
        summary, cfg_probs([0.3, 0.7], "linear_drift", 2000, 1).amplitudes)
    assert not (born_half.passed and born_skew.passed)
    assert born_half.passed  # drift winners are symmetric, matching (.5, .5)
    assert not born_skew.passed


def test_traces_report_x_normalization():
    cfg = cfg_probs([0.4, 0.6], "linear_noise", runs=4, seed=5, steps=500,
                    record_traces=4)
    traces, _ = collapse.run_scheme(cfg)
    for t in traces:
        sums = t.x.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert (t.x >= 0).all() and (t.x <= 1).all()


# ----------------------------------------------------------------------
# nonlinear ruin
# ----------------------------------------------------------------------
def test_ruin_martingale_and_simplex_conservation():
    cfg = cfg_probs([0.35, 0.65], "nonlinear_ruin", runs=600, seed=6, steps=800,
                    record_traces=600)
    traces, _ = collapse.run_scheme(cfg)
    path = np.stack([t.x for t in traces], axis=1)  # (steps+1, runs, n)
    sums = path.sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    increments = np.diff(path[:, :, 0], axis=0).ravel()
    stderr = increments.std() / np.sqrt(increments.size)
    assert abs(increments.mean()) <= 3 * max(stderr, 1e-12)


def test_ruin_absorption_matches_initial_weight():
    cfg = cfg_probs([0.3, 0.7], "nonlinear_ruin", runs=4000, seed=12, steps=30000)
    _, summary = collapse.run_scheme(cfg)
    assert summary.nonconverged == 0
    freq = summary.frequencies[0]
    sigma = np.sqrt(0.3 * 0.7 / 4000)
    assert abs(freq - 0.3) <= 3 * sigma


def test_ruin_absorbing_start():
    cfg = cfg_probs([1.0, 0.0], "nonlinear_ruin", runs=300, seed=2)
    _, summary = collapse.run_scheme(cfg)
    born = collapse.born_test(summary, cfg.amplitudes)
    assert born.frequencies == [1.0, 0.0]
    assert born.passed


def test_config_refuses_a_single_outcome():
    """One outcome leaves the chi-square verdict no degree of freedom, so it
    would pass whatever the run did.  A second outcome of weight zero is
    accepted: the verdict then checks that it never wins."""
    for scheme in collapse.SCHEMES:
        with pytest.raises(ValueError, match="at least 2 outcomes"):
            cfg_probs([1.0], scheme, runs=40, seed=3)
        cfg_probs([1.0, 0.0], scheme, runs=40, seed=3)


def test_born_test_rejects_impossible_winner():
    summary = collapse.CollapseSummary("nonlinear_ruin", 2, 10, [9, 1], 0)
    report = collapse.born_test(summary, (1.0 + 0j, 0j))
    assert not report.passed


@pytest.mark.parametrize("dof", range(1, 5))
def test_born_p_value_matches_scipy_stats_chi2(dof):
    """The special-function kernels give scipy.stats' tail values exactly."""
    n = dof + 1
    amps = [complex((1 / n) ** 0.5)] * n
    for counts in ([100] * n, [100 + 3 * k for k in range(n)],
                   [100 + 40 * k for k in range(n)], [1000] + [0] * dof,
                   [1] * dof + [2]):
        summary = collapse.CollapseSummary("nonlinear_ruin", n, sum(counts), counts, 0)
        report = collapse.born_test(summary, amps)
        assert report.p_value == float(stats.chi2.sf(report.chi2, dof))
        assert report.passed == (report.p_value >= 2 * stats.norm.sf(3.0))
    assert collapse.THREE_SIGMA_P == 2 * stats.norm.sf(3.0)


# ----------------------------------------------------------------------
# chi-square tail: scipy.special.chdtrc, which only the tests import, is
# the oracle, compared bit for bit
# ----------------------------------------------------------------------
def _assert_scipy_tail(dof, x):
    got = chi2.chdtrc(dof, x)
    assert type(got) is float
    assert got.hex() == float(special.chdtrc(dof, x)).hex(), (dof, x)


def _chi2_oracle_points():
    """A seeded grid over dof 1-127, then each dispatch boundary of Cephes
    igamc, in a = dof / 2 and h = x / 2, with its neighbouring floats."""
    rng = random.Random(0)
    points = []
    for dof in range(1, 128):
        for _ in range(20):
            points += [(dof, rng.uniform(0.0, 2000.0)),
                       (dof, rng.uniform(0.0, 3.0 * dof)),
                       (dof, 10.0 ** rng.uniform(-8.0, 3.3))]
    for dof in range(1, chi2.MAX_DOF + 1):
        a = dof / 2
        edges = [0.5, 1.1, a / 1.1, 1.4 * a, 0.6 * a, math.exp(-0.4 / a)]
        for h in edges:
            x = 2 * h
            for _ in range(8):
                x = math.nextafter(x, 0.0)
            for _ in range(17):
                points.append((dof, x))
                x = math.nextafter(x, math.inf)
    return points


def test_chi2_tail_is_scipys_bit_for_bit():
    points = _chi2_oracle_points()
    assert len(points) == 11_700
    for dof, x in points:
        _assert_scipy_tail(dof, x)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 127), st.floats(0.0, 2000.0))
def test_chi2_tail_is_scipys_on_hypothesis_draws(dof, x):
    _assert_scipy_tail(dof, x)


def test_chi2_tail_at_zero_and_in_underflow():
    for dof in range(1, chi2.MAX_DOF + 1):
        _assert_scipy_tail(dof, 0.0)
        assert chi2.chdtrc(dof, 0.0) == 1.0 == chi2.chdtrc(dof, -1.0)
    # At dof 1 the prefactor x**a exp(-x) / Gamma(a), a = 1/2, falls below
    # exp(-709.78) and is flushed to zero from about x = 1427 on.
    _assert_scipy_tail(1, 1500.0)
    assert chi2.chdtrc(1, 1500.0) == 0.0 < chi2.chdtrc(1, 1400.0)


def test_chi2_tail_delegates_to_scipy_past_max_dof(monkeypatch):
    """Past MAX_DOF Cephes takes Temme's expansion near x = dof, which the
    port leaves to scipy; up to it, scipy is never called."""
    calls = []

    def recorder(dof, x):
        calls.append((dof, x))
        return np.float64(0.25)

    monkeypatch.setattr(special, "chdtrc", recorder)
    assert chi2.chdtrc(chi2.MAX_DOF, 40.0) != 0.25 and calls == []
    got = chi2.chdtrc(chi2.MAX_DOF + 1, 40.0)
    assert got == 0.25 and type(got) is float
    assert calls == [(chi2.MAX_DOF + 1, 40.0)]


def test_deterministic_given_config():
    cfg = cfg_probs([0.25, 0.75], "nonlinear_ruin", runs=500, seed=77, steps=8000,
                    record_traces=6)
    tr1, s1 = collapse.run_scheme(cfg)
    tr2, s2 = collapse.run_scheme(cfg)
    assert s1.winner_counts == s2.winner_counts
    for a, b in zip(tr1, tr2):
        assert np.array_equal(a.x, b.x)
        assert a.absorbed_step == b.absorbed_step


def test_ruin_traces_do_not_change_summary():
    kw = dict(dt=0.02, steps=3000)
    _, plain = collapse.run_scheme(cfg_probs([0.2, 0.3, 0.5], "nonlinear_ruin",
                                             300, 3, **kw))
    assert plain.nonconverged > 0  # the horizon cuts some runs short
    k = 9
    cfg = cfg_probs([0.2, 0.3, 0.5], "nonlinear_ruin", 300, 3, record_traces=k, **kw)
    traces, traced = collapse.run_scheme(cfg)
    assert traced.winner_counts == plain.winner_counts
    assert traced.nonconverged == plain.nonconverged
    assert len(traces) == k
    for t in traces:
        last = t.x[-1]
        if t.winner is None:
            assert t.absorbed_step is None
            assert last.max() < 1.0 - collapse.ABSORPTION_EPS
        else:
            assert last[t.winner] == last.max() >= 1.0 - collapse.ABSORPTION_EPS
            assert np.array_equal(t.x[t.absorbed_step:], np.broadcast_to(
                last, t.x[t.absorbed_step:].shape))


def test_traces_off_by_default():
    cfg = cfg_probs([0.3, 0.7], "nonlinear_ruin", 40, 1, steps=200)
    assert cfg.record_traces == 0
    assert collapse.run_scheme(cfg)[0] == []


def test_nonconverged_reported_not_fatal():
    cfg = cfg_probs([0.5, 0.5], "nonlinear_ruin", runs=50, seed=8, steps=5)
    _, summary = collapse.run_scheme(cfg)
    assert summary.nonconverged == 50
    born = collapse.born_test(summary, cfg.amplitudes)
    assert not born.passed  # nothing terminated, frequencies are empty


# ----------------------------------------------------------------------
# the blocked ruin kernel against the stepwise one, bit for bit
# ----------------------------------------------------------------------
def _stepwise_ruin(cfg: CollapseConfig) -> tuple[list[RunTrace], CollapseSummary]:
    """The ruin walk one step at a time, as it ran before the blocked kernel."""
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


@st.composite
def ruin_configs(draw):
    """Two to five outcomes, some of zero weight or starting on a vertex;
    up to 600 runs, so a 256-step chunk splits into sub-blocks, and up to
    3,000 steps, so runs cross chunk boundaries."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 50, 1000]),
                            min_size=n, max_size=n).filter(any))
    runs = draw(st.integers(1, 600) | st.integers(513, 600))
    steps = draw(st.integers(1, min(3000, 600_000 // runs)))  # bounds trace memory
    dt = draw(st.sampled_from([0.3, 0.05, 0.02, 0.0137, 0.01]))
    seed = draw(st.integers(0, 2**32 - 1))
    return CollapseConfig.from_probs(weights, "nonlinear_ruin", runs, seed, dt=dt,
                                     steps=steps, record_traces=runs)


@settings(max_examples=30, deadline=None)
@given(ruin_configs())
def test_blocked_ruin_matches_stepwise_bit_for_bit(cfg):
    _assert_same_as_stepwise(cfg)


@pytest.mark.parametrize("shape", [(1, 1), (256, 3), (7, 1000), (256, 4000)])
@pytest.mark.parametrize("seed", [0, 1, 11, 13, 2**32 - 1])
def test_ruin_signs_are_the_choice_stream(shape, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ref = np.random.default_rng(np.random.SeedSequence(seed))
    signs = collapse._ruin_signs(rng, shape)
    assert signs.dtype == np.int8
    assert np.array_equal(signs, ref.choice((-1.0, 1.0), size=shape))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (256, 257)])
def test_ruin_draws_at_32_bits_are_the_default_stream(shape):
    """``_run_ruin`` draws pairs and signs as int32: below 2**32 numpy's
    bounded draw is one 32-bit stream whatever the dtype, so each draw, and
    the generator state after it, equals the default (int64) draw's."""
    rng = np.random.default_rng(np.random.SeedSequence(3))
    ref = np.random.default_rng(np.random.SeedSequence(3))
    for n in range(2, collapse.MAX_OUTCOMES + 1):
        for low, high in ((0, n), (1, n), (0, 2)):
            got = rng.integers(low, high, size=shape, dtype=np.int32)
            assert np.array_equal(got, ref.integers(low, high, size=shape))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("shape", [
    (1, 1), (7, 3),  # odd sizes inside one slab
    (2, collapse._RUIN_BLOCK // 2),  # exactly one slab
    (3, collapse._RUIN_BLOCK // 2 + 1),  # odd, one and a half slabs
])
def test_slab_draws_are_one_whole_draw(shape):
    """``_draw`` fills its narrow output one ``_RUIN_BLOCK`` slab at a time;
    the values, and the whole generator state after them (the buffered
    half of a 64-bit output included), are those of one int32 draw."""
    rng = np.random.default_rng(np.random.SeedSequence(5))
    ref = np.random.default_rng(np.random.SeedSequence(5))
    for gen in (rng, ref):  # take half of one 64-bit output, keep the other
        gen.integers(0, 3, size=1, dtype=np.int32)
    buffered = False
    for n in range(2, collapse.MAX_OUTCOMES + 1):
        dtype = np.min_scalar_type(-2 * n)
        for low, high in ((0, n), (1, n), (0, 2)):
            got = collapse._draw(rng, low, high, shape, dtype)
            want = ref.integers(low, high, size=shape, dtype=np.int32)
            assert got.dtype == dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state
            buffered |= bool(rng.bit_generator.state["has_uint32"])
    assert buffered  # some slab started on a buffered half


def _bench_ruin(probs, runs, steps):
    """A ``bench/workloads.py`` ruin job's configuration (seed 7)."""
    return cfg_probs(probs, "nonlinear_ruin", runs, 7, steps=steps)


@pytest.mark.parametrize("cfg", [_bench_ruin([0.3, 0.7], 4000, 20_000),
                                 _bench_ruin([0.2, 0.3, 0.5], 2000, 60_000)],
                         ids=["ruin-2", "ruin-3"])
def test_ruin_run_holds_its_draws_and_two_sub_block_buffers(cfg):
    """A ruin run holds one chunk's narrow draws (pairs and signs, one byte
    a cell) and its sub-block working set, which is sized across outcomes
    to about two float buffers of ``2 * _RUIN_BLOCK`` cells.  Chunk-sized
    int32 draws or sub-blocks sized per row alone break the bound."""
    collapse.run_scheme(_bench_ruin([1, 2, 3], 5, 10))  # imports and caches
    draws = _RUIN_CHUNK * cfg.runs * (1 if cfg.n == 2 else 3)
    buffer = 8 * 2 * collapse._RUIN_BLOCK
    tracemalloc.start()
    try:
        collapse.run_scheme(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws + 2 * buffer


def test_blocked_ruin_matches_stepwise_past_int8_outcome_indices():
    """70 outcomes: i + offset reaches 138, beyond the int8 range."""
    _assert_same_as_stepwise(cfg_probs(range(1, 71), "nonlinear_ruin", runs=40, seed=4,
                                       dt=0.001, steps=600, record_traces=40))


def _assert_same_as_stepwise(cfg):
    traces, summary = collapse._run_ruin(cfg)
    ref_traces, ref = _stepwise_ruin(cfg)
    assert summary.winner_counts == ref.winner_counts
    assert summary.nonconverged == ref.nonconverged
    assert len(traces) == len(ref_traces) == cfg.runs
    for got, want in zip(traces, ref_traces):
        assert got.x.shape == want.x.shape
        assert got.x.tobytes() == want.x.tobytes()
        assert got.winner == want.winner
        assert got.absorbed_step == want.absorbed_step
