"""Seeded draws: the stacked Haar kernel against the per-call draws of
``tests/oracles.py``, value for value and generator state for state."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from histq.cli import bundled_scenario_path
from histq.decoherence import DecoherenceState, sector_fits
from histq.sampling import (draw_projectors, random_operator, random_operators,
                            random_projectors, random_pvm, random_unitary, resolve_projectors)
from histq.scenario import load_scenario
from histq.verify import _check_axioms, _check_representations, _side_states, run_suite

SEEDS = st.integers(0, 2 ** 32 - 1)


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@given(dim=st.integers(1, 4), count=st.integers(1, 24), seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_stack_equals_per_call_draws(dim, count, seed):
    rng, twin = _twins(seed)
    stacked = random_projectors(rng, dim, count)
    single = [oracles.random_projector(twin, dim) for _ in range(count)]
    assert len(stacked) == count
    assert all(np.array_equal(p, q) for p, q in zip(stacked, single))
    assert _same_state(rng, twin)


@given(dim=st.integers(1, 4), count=st.integers(0, 12), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_operator_stack_equals_two_draws_per_operator(dim, count, seed):
    rng, twin = _twins(seed)
    stacked = random_operators(rng, dim, count)
    single = [oracles.random_operator(twin, dim) for _ in range(count)]
    assert stacked.shape == (count, dim, dim)
    assert [z.tobytes() for z in stacked] == [z.tobytes() for z in single]
    assert random_operator(rng, dim).tobytes() == oracles.random_operator(twin, dim).tobytes()
    assert _same_state(rng, twin)


@given(dim=st.integers(1, 4), seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_single_draws_equal_per_call_draws(dim, seed):
    rng, twin = _twins(seed)
    assert np.array_equal(random_unitary(rng, dim), oracles.haar_unitary(twin, dim))
    assert all(np.array_equal(p, q)
               for p, q in zip(random_pvm(rng, dim), oracles.random_pvm(twin, dim)))
    assert _same_state(rng, twin)


@given(dim=st.integers(1, 4), counts=st.lists(st.integers(0, 6), min_size=1, max_size=4),
       seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_draws_resolved_together_equal_per_call_draws(dim, counts, seed):
    # the draw step takes the per-call stream (rank, then two Gaussian
    # matrices, per projector), and whichever draws one QR resolves, the
    # projectors are those of one call per projector
    rng, twin = _twins(seed)
    draws = [draw_projectors(rng, dim, count) for count in counts]
    single = [oracles.random_projector(twin, dim) for _ in range(sum(counts))]
    assert _same_state(rng, twin)
    ranks = [r for rs, _ in draws for r in rs]
    together = resolve_projectors(ranks, np.concatenate([z for _, z in draws]))
    assert len(together) == sum(counts)
    assert all(np.array_equal(p, q) for p, q in zip(together, single))


def _count_qr(monkeypatch) -> list:
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


def test_axioms_resolve_each_state_by_one_qr(monkeypatch):
    # ten iterations per state, each drawing its number of times between its
    # projectors, resolved as one stack: the two side states and the scenario
    scn = load_scenario(bundled_scenario_path())
    calls = _count_qr(monkeypatch)
    assert _check_axioms(scn, np.random.default_rng(scn.seed)).passed
    assert len(calls) == 3


def test_bundled_verify_runs_few_qr(monkeypatch):
    scn = load_scenario(bundled_scenario_path())
    calls = _count_qr(monkeypatch)
    assert all(r.passed for r in run_suite(scn))
    assert 0 < len(calls) <= 50  # one per stacked block, where single draws made 244


def _per_call_axiom_draws(scn, rng):
    """The draws of the axioms check, one projector per call: per state ten
    iterations of a number of times n, then h and k on n times each."""
    for ds in _side_states(rng) + [DecoherenceState(model=scn.model, grid=scn.grid)]:
        for _ in range(10):
            n = int(rng.integers(1, min(2, len(ds.grid.times)) + 1))
            for _ in range(2 * n):
                oracles.random_projector(rng, ds.model.dim)


def _per_call_representation_draws(scn, rng):
    """The draws of the representation check, one projector per call: 16
    histories per state and admitted number of times."""
    for ds in _side_states(rng) + [DecoherenceState(model=scn.model, grid=scn.grid)]:
        for n in (1, 2):
            if n <= len(ds.grid.times) and sector_fits(ds.model.dim, n):
                for _ in range(16 * n):
                    oracles.random_projector(rng, ds.model.dim)


@given(seed=SEEDS)
@settings(max_examples=5, deadline=None)
def test_stacked_checks_leave_the_per_call_stream(seed):
    # the history stacks keep the draw order of one call per projector, so
    # every later check sees the same generator state
    scn = load_scenario(bundled_scenario_path())
    for check, per_call in ((_check_axioms, _per_call_axiom_draws),
                            (_check_representations, _per_call_representation_draws)):
        rng, twin = _twins(seed)
        assert check(scn, rng).passed
        per_call(scn, twin)
        assert _same_state(rng, twin)
