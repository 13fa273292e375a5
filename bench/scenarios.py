"""Seeded scenario generators for the benchmark workloads.

Each workload names a CLI subcommand and a scenario shape.  The scenario is
drawn with plain numpy from ``(seed, workload)`` and written as scenario JSON,
which is all the program under test receives; ``histq.sampling`` is not used,
so the inputs do not move when the program's own samplers change.

The shapes fix the amount of work (base-family size, number of times, number
of histories); the seed changes only the numbers, so one operation costs
about the same on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Workload", "WORKLOADS", "generate", "write_scenario"]


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-qubit3", "entropy",
                 "window search over all Bell(8) = 4140 partitions of a dim-2 three-time "
                 "family; the consistency and propositions layers dominate"),
        Workload("decohere-qubit7", "decohere",
                 "three dim-2 seven-time histories; d_basis_sum over 2^14 index terms "
                 "dominates and no window code runs"),
        Workload("verify-qubit", "verify",
                 "property suite on a dim-2 two-time scenario; thousands of small calls "
                 "through every layer, so per-call overhead shows"),
    )
}


def _matrix(m: np.ndarray) -> dict:
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = _complex_normal(rng, (dim, dim))
    return 0.5 * (a + a.conj().T)


def _density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix: a Wishart draw shifted away from singular."""
    a = _complex_normal(rng, (dim, dim))
    rho = a @ a.conj().T + 0.2 * np.eye(dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary; its columns are an orthonormal basis."""
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rank_one(v: np.ndarray) -> np.ndarray:
    p = np.outer(v, v.conj())
    return 0.5 * (p + p.conj().T)


def _decomposition(rng: np.random.Generator, dim: int) -> dict:
    u = _basis(rng, dim)
    return {"projectors": [{"matrix": _matrix(_rank_one(u[:, i]))} for i in range(dim)]}


def _times(rng: np.random.Generator, n: int) -> list[float]:
    return np.cumsum(rng.uniform(0.5, 1.5, size=n)).tolist()


def _history(rng: np.random.Generator, dim: int, n: int, label: str) -> dict:
    specs = []
    for _ in range(n):
        specs.append({"matrix": _matrix(_rank_one(_basis(rng, dim)[:, 0]))})
    return {"label": label, "projectors": specs}


def _base(rng: np.random.Generator, dim: int, n_times: int, seed: int) -> dict:
    return {
        "dim": dim,
        "hamiltonian": _matrix(_hermitian(rng, dim)),
        "rho": {"matrix": _matrix(_density(rng, dim))},
        "t0": 0.0,
        "times": _times(rng, n_times),
        "seed": seed,
    }


def generate(workload: str, seed: int) -> dict:
    """Scenario JSON object for ``workload``; equal seeds give equal scenarios."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    if workload == "search-qubit3":
        scn = _base(rng, 2, 3, seed)
        scn["histories"] = []
        scn["pvms"] = [[_decomposition(rng, 2)] for _ in range(3)]
        scn["entropy_p"] = [1.0, 2.0]
    elif workload == "decohere-qubit7":
        scn = _base(rng, 2, 7, seed)
        scn["histories"] = [_history(rng, 2, 7, f"h{i}") for i in range(3)]
        scn["pvms"] = []
    else:
        scn = _base(rng, 2, 2, seed)
        scn["histories"] = [_history(rng, 2, 2, f"h{i}") for i in range(3)]
        scn["pvms"] = [[_decomposition(rng, 2), _decomposition(rng, 2)]]
        scn["entropy_p"] = [1.0, 1.5, 2.0, 3.0]
    return scn


def write_scenario(path: Path, workload: str, seed: int) -> Path:
    path.write_text(json.dumps(generate(workload, seed), indent=1) + "\n", encoding="utf-8")
    return path
