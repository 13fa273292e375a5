import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histq.core import (
    SystemModel,
    TOLERANCES,
    TimeGrid,
    Tolerances,
    evolve,
    heisenberg,
    is_hermitian,
    is_projector,
    named_basis,
    tensor_product,
)
from histq.consistency import search_windows
from histq.propositions import wright_operator
from histq.sampling import random_hermitian

import oracles
from helpers import H_ZERO, P0, P1, SIGMA_X, count_calls, state_for
from oracles import random_projector

# real and imaginary parts: both signed zeros, ones and values that round in products
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 3.0e150])


@st.composite
def factor_lists(draw):
    """One to three square complex factors of sizes 1-3, entries from ``PARTS``."""
    out = []
    for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        parts = draw(st.lists(PARTS, min_size=2 * d * d, max_size=2 * d * d))
        out.append(np.array(parts[::2]).reshape(d, d) + 1j * np.array(parts[1::2]).reshape(d, d))
    return out


@st.composite
def broadcast_stacks(draw):
    """One to three stacks (..., d, d) of ``PARTS`` entries whose leading axes
    broadcast: each keeps a drawn suffix of a shape of up to two axes, some of
    its axes set to 1."""
    shape = draw(st.lists(st.integers(1, 3), max_size=2))
    out = []
    for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        lead = [draw(st.sampled_from([1, n])) for n in shape][draw(st.integers(0, len(shape))):]
        size = int(np.prod(lead, dtype=int)) * d * d
        parts = draw(st.lists(PARTS, min_size=2 * size, max_size=2 * size))
        out.append((np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(*lead, d, d))
    return out


class TestTensorProduct:
    def test_identity_factors(self):
        eye2 = np.eye(2)
        assert np.allclose(tensor_product([eye2, eye2]), np.eye(4))

    def test_computational_projectors(self):
        got = tensor_product([P0, P1])
        assert np.allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_formula_oracle(self):
        # (A (x) B)[2i+k, 2j+l] = A[i,j] B[k,l], checked entry by entry
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = tensor_product([a, b])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert got[2 * i + k, 2 * j + l] == pytest.approx(a[i, j] * b[k, l])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty tensor factor list"):
            tensor_product([])

    @given(factor_lists())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_kron_oracle(self, mats):
        # every entry is the product np.kron forms, in its order: the same bits,
        # signed zeros, infinities and NaNs included
        with np.errstate(over="ignore", invalid="ignore"):  # 3e150 squared overflows
            got, want = tensor_product(mats), oracles.kron_product(mats)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(broadcast_stacks())
    @settings(max_examples=200, deadline=None)
    def test_broadcast_stacks_equal_the_kron_oracle_row_by_row(self, stacks):
        with np.errstate(over="ignore", invalid="ignore"):
            got = tensor_product(stacks)
            lead = np.broadcast_shapes(*(s.shape[:-2] for s in stacks))
            assert got.shape[:-2] == lead
            for index in np.ndindex(*lead):
                rows = [np.broadcast_to(s, (*lead, *s.shape[-2:]))[index] for s in stacks]
                assert got[index].tobytes() == oracles.kron_product(rows).tobytes()

    def test_non_square_operand_rejected(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            tensor_product([np.eye(2), np.ones((2, 3))])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative_up_to_reshaping(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in (2, 3, 2)]
        left = tensor_product([tensor_product(mats[:2]), mats[2]])
        assert np.max(np.abs(tensor_product(mats) - left)) <= 1e-14


class TestEvolve:
    def test_zero_generator(self):
        model = SystemModel.from_matrices(H_ZERO, np.eye(2) / 2)
        assert np.allclose(evolve(model, 17.3), np.eye(2), atol=1e-12)

    def test_half_turn_oracle(self):
        # exp(-i (pi/2) sigma_x) = -i sigma_x by the 2x2 eigendecomposition
        model = SystemModel.from_matrices((np.pi / 2) * SIGMA_X, np.eye(2) / 2)
        u = evolve(model, 1.0)
        ket0 = np.array([1.0, 0.0])
        assert np.max(np.abs(u @ ket0 - (-1j) * np.array([0.0, 1.0]))) <= 1e-10
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) <= 1e-10

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unitarity_and_unit_modulus(self, seed):
        rng = np.random.default_rng(seed)
        model = SystemModel.from_matrices(random_hermitian(rng, 3), np.eye(3) / 3)
        t = float(rng.uniform(-3, 3))
        u = evolve(model, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10
        assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0)) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SystemModel.from_matrices(np.array([[0, 1], [0, 0]]), np.eye(2) / 2)

    def test_uses_the_models_eigendecomposition(self, monkeypatch):
        model = SystemModel.from_matrices((np.pi / 2) * SIGMA_X, np.eye(2) / 2)
        assert np.allclose(model.energies, [-np.pi / 2, np.pi / 2], atol=1e-12)

        def no_eigh(*args, **kwargs):
            raise AssertionError("evolve must not diagonalise H again")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert np.max(np.abs(evolve(model, 1.0) - (-1j) * SIGMA_X)) <= 1e-10

    @given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
           pool=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_times_array_equals_the_per_time_oracle(self, dim, seed, pool, data):
        # a sequence of times, repeats included, gives one unitary per entry
        # with the bits of the one-time formula; a scalar time gives one matrix
        rng = np.random.default_rng(seed)
        model = SystemModel.from_matrices(random_hermitian(rng, dim), np.eye(dim) / dim)
        t0 = data.draw(st.floats(-5.0, 5.0))
        times = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        stack = evolve(model, times, t0)
        assert stack.shape == (len(times), dim, dim)
        for t, u in zip(times, stack):
            assert np.array_equal(u, oracles.evolve(model, t, t0))
        assert np.array_equal(evolve(model, pool[0], t0), oracles.evolve(model, pool[0], t0))
        assert np.array_equal(evolve(model, np.float64(pool[0]), t0),
                              oracles.evolve(model, pool[0], t0))


class TestHeisenberg:
    def test_zero_hamiltonian_fixes_projector(self):
        model = SystemModel.from_matrices(H_ZERO, np.eye(2) / 2)
        assert np.allclose(heisenberg(model, P0, 2.0), P0)

    def test_half_turn_swaps_poles(self):
        model = SystemModel.from_matrices((np.pi / 2) * SIGMA_X, np.eye(2) / 2)
        moved = heisenberg(model, P0, 1.0)
        assert np.max(np.abs(moved - P1)) <= 1e-10

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugation_preserves_structure(self, seed):
        rng = np.random.default_rng(seed)
        model = SystemModel.from_matrices(random_hermitian(rng, 3), np.eye(3) / 3)
        p = random_projector(rng, 3, rank=int(rng.integers(1, 3)))
        moved = heisenberg(model, p, float(rng.uniform(0, 2)))
        assert is_projector(moved)
        assert np.trace(moved).real == pytest.approx(np.trace(p).real, abs=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvalsh(moved)),
                           np.sort(np.linalg.eigvalsh(p)), atol=1e-10)

    def test_non_projector_rejected(self):
        # transport checks nothing; a decomposition that sums to the identity
        # without being projective is rejected where it enters the search
        ds = state_for(SystemModel.from_matrices(H_ZERO, np.eye(2) / 2), times=(0.0,))
        t = wright_operator(ds, (0.0,))
        half = np.eye(2) / 2
        with pytest.raises(ValueError, match=r"pvms\[0\]\[0\]: elements must be projectors"):
            search_windows(t, [[[half, half]]])

    @given(dim=st.integers(1, 4), count=st.integers(1, 5), n=st.integers(1, 3),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_the_single_transports(self, dim, count, n, seed):
        # one evolve call on the n times, and the bits of one transport per operator
        rng = np.random.default_rng(seed)
        model = SystemModel.from_matrices(random_hermitian(rng, dim), np.eye(dim) / dim)
        times = tuple(float(t) for t in np.cumsum(rng.uniform(0.1, 1.0, n)))
        stack = rng.standard_normal((count, n, dim, dim)) + 0j
        single = [[oracles.heisenberg(model, stack[i, j], times[j], 0.3) for j in range(n)]
                  for i in range(count)]
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, "evolve")
            moved = heisenberg(model, stack, times, 0.3)
        assert [t for _, t, _ in calls] == [list(times)]
        assert moved.shape == stack.shape
        assert np.array_equal(moved, np.array(single))

    @given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
           pool=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_repeated_and_scalar_times_equal_the_oracle(self, dim, seed, pool, data):
        # a time grid with repeats is evolved by one call on its distinct
        # times in first-seen order (no call without times); a scalar time
        # moves a whole stack by one unitary
        rng = np.random.default_rng(seed)
        model = SystemModel.from_matrices(random_hermitian(rng, dim), np.eye(dim) / dim)
        count, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
        times = np.reshape(data.draw(st.lists(st.sampled_from(pool), min_size=count * n,
                                              max_size=count * n)), (count, n))
        stack = rng.standard_normal((count, n, dim, dim)) + 1j * rng.standard_normal(
            (count, n, dim, dim))
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, "evolve")
            moved = heisenberg(model, stack, times, -0.7)
            whole = heisenberg(model, stack, pool[0], -0.7)
        grid = [list(dict.fromkeys(times.ravel().tolist()))] if count else []
        assert [t for _, t, _ in calls] == grid + [[pool[0]]]
        for i, j in np.ndindex(count, n):
            assert np.array_equal(moved[i, j],
                                  oracles.heisenberg(model, stack[i, j], times[i, j], -0.7))
            assert np.array_equal(whole[i, j],
                                  oracles.heisenberg(model, stack[i, j], pool[0], -0.7))

    def test_transports_any_operator(self):
        # U(1) = exp(-i pi/2 sigma_x) = -i sigma_x, so U^dag A U = sigma_x A sigma_x
        model = SystemModel.from_matrices((np.pi / 2) * SIGMA_X, np.eye(2) / 2)
        a = np.array([[1.0, 2.0j], [3.0, 4.0 - 1.0j]])
        assert np.max(np.abs(heisenberg(model, a, 1.0) - SIGMA_X @ a @ SIGMA_X)) <= 1e-12


class TestIsProjector:
    """One call decides a stack, one verdict per matrix, by the per-matrix rule."""

    @given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stack_agrees_with_the_per_matrix_rule_near_the_bounds(self, dim, seed):
        # projectors moved off by anti-Hermitian and Hermitian errors around
        # each bound, some scaled up so the Hermitian bound scales with them
        rng = np.random.default_rng(seed)
        mats = []
        for scale in (1.0, 1e3):
            for size in np.logspace(-14, -8, 13):
                e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                e /= np.abs(e).max()
                for err in (e - e.conj().T, e + e.conj().T):
                    mats.append(scale * (random_projector(rng, dim) + size * err / 2))
        stack = np.array(mats)
        verdicts = is_projector(stack)
        assert verdicts.shape == (len(mats),)
        assert verdicts.tolist() == [oracles.is_projector(m) for m in mats]
        assert is_hermitian(stack).tolist() == [oracles.is_hermitian(m) for m in mats]
        nested = is_projector(stack.reshape(2, -1, dim, dim))
        assert nested.tolist() == verdicts.reshape(2, -1).tolist()

    def test_both_verdicts_occur_near_the_bounds(self):
        off = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1e-12  # anti-Hermitian
        near = [P0 + 0.4 * off, P0 + 2.0 * off, P0 + 0.5e-10 * P1, P0 + 2e-10 * P1]
        assert is_projector(np.array(near)).tolist() == [True, False, True, False]
        assert [oracles.is_projector(p) for p in near] == [True, False, True, False]

    def test_one_matrix_gives_one_verdict_and_empty_stacks_none(self):
        assert is_projector(P0).shape == () and bool(is_projector(P0))
        assert is_projector(np.empty((0, 2, 2))).shape == (0,)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            is_projector(np.zeros(shape))


class TestSystemModel:
    def test_spectral_reconstruction_validated(self):
        with pytest.raises(ValueError, match="reconstruct"):
            SystemModel(dim=2, hamiltonian=H_ZERO, rho=np.diag([0.75, 0.25]),
                        weights=np.array([0.5, 0.5]), vectors=np.eye(2))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SystemModel(dim=2, hamiltonian=H_ZERO, rho=np.diag([0.75, 0.25]),
                        weights=np.array([0.75, 0.5]), vectors=np.eye(2))

    def test_trace_one_required(self):
        with pytest.raises(ValueError, match="unit trace"):
            SystemModel.from_matrices(H_ZERO, np.diag([0.9, 0.25]))

    def test_orthonormal_vectors_required(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            SystemModel(dim=2, hamiltonian=H_ZERO, rho=np.diag([0.75, 0.25]),
                        weights=np.array([0.75, 0.25]), vectors=v)

    def test_eigh_resolution_roundtrip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        model = SystemModel.from_matrices(np.zeros((3, 3)), rho)
        rebuilt = (model.vectors * model.weights) @ model.vectors.conj().T
        assert np.max(np.abs(rebuilt - rho)) <= 1e-10


class TestTimeGrid:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid(times=(0.0, 0.0))

    def test_membership(self):
        grid = TimeGrid(times=(0.0, 1.5))
        assert grid.require(1.5) == 1.5
        with pytest.raises(ValueError, match="not on the grid"):
            grid.require(0.7)
        # membership is exact float equality, and 0.1 + 0.2 != 0.3
        with pytest.raises(ValueError, match=r"0\.30000000000000004 is not on the grid \(0\.0, 0\.3\)"):
            TimeGrid(times=(0.0, 0.3)).require(0.1 + 0.2)


class TestTolerances:
    def test_default_when_unset(self):
        assert TOLERANCES == Tolerances()
        assert TOLERANCES.agreement == 1e-9

    def test_readme_table_lists_every_field_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
        fields = dataclasses.fields(Tolerances)
        assert [(name, float(value)) for name, value in rows] == [(f.name, f.default)
                                                                  for f in fields]


def test_named_basis_hadamard_qubit():
    basis = named_basis("hadamard", 2)
    plus = basis[:, 0]
    assert np.max(np.abs(plus - np.array([1, 1]) / np.sqrt(2))) <= 1e-12
    u = named_basis("hadamard", 3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12
    with pytest.raises(ValueError, match="unknown basis"):
        named_basis("fourier-ish", 2)
