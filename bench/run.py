"""histq benchmark: seeded CLI workloads, end-to-end metrics and per-layer traces.

Usage (from the root of a checkout; ``histq`` need not be installed):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload the scenario is generated from ``--seed``, the set-up cost
is timed in fresh processes, and a worker process calls ``histq.cli.main``
as one closed-loop client for ``--seconds`` seconds, checking every report.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
a traced run prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Everything the run writes goes to a temporary directory inside the checkout,
which is removed at exit.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layertrace import LAYERS, layer_metrics, load_spans  # noqa: E402
from scenarios import WORKLOADS, write_scenario  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
RUN_TIMEOUT_S = 170.0
REFERENCE_DIR = HERE / "reference"
# One BLAS thread: the load is one process on one core, which keeps the
# timings steady on a small shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The bounded time is the mean of the operation times (the timed seconds over
# the operations run), not their median: on a shared host the machine's speed
# switches between a fast and a slow mode for seconds to minutes at a time.
# The mean moves in proportion to the share of slow time in a run, while the
# median or a low quantile jumps from one mode to the other.
END_TO_END = [("run_mean_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _per_layer() -> list[tuple[str, str]]:
    named = [
        "consistency.check_window.calls", "consistency.check_window.self_s",
        "consistency.search_windows.self_s", "consistency.partitions_examined",
        "consistency.windows_accepted", "consistency.accept_ratio",
        "propositions.hs_inner.calls", "propositions.hs_inner.self_s",
        "propositions.probability.calls", "propositions.probability.self_s",
        "decoherence.d_basis_sum.calls", "decoherence.d_basis_sum.self_s",
        "decoherence.d_basis_sum.terms", "histories.embed.self_s",
        "core.tensor_product.self_s",
        "core.evolve.calls", "core.evolve.self_s", "core.heisenberg.calls",
        "core.is_projector.calls", "core.is_hermitian.calls",
        "histories.class_operator.calls", "histories.chain_map.calls",
        "histories.support_reduce.calls", "decoherence.d_trace.calls",
        "decoherence.d_trace.self_s", "decoherence.d_form.calls", "decoherence.d_form.self_s",
        "propositions.wright_operator.calls", "propositions.wright_operator.self_s",
        "decoherence.ils_reconstruct.calls", "decoherence.ils_reconstruct.self_s",
        "decoherence.ils_reconstruct.raised", "decoherence.IlsOperator.pair_value.self_s",
        "consistency.check_window_operators.calls", "consistency.check_window_operators.self_s",
        "consistency.is_refinement.calls", "propositions.p_norm.calls",
        "entropy.window_entropy.self_s", "entropy.window_entropy_pnorm.self_s",
        "entropy.sup_refinement_entropy.self_s", "entropy.refinement_gap.calls",
        "divergence.b1_series.self_s", "divergence.b2_series.self_s",
        "divergence.growth_fit.self_s", "divergence.b1_direct_value.self_s",
        "scenario.load_scenario.self_s", "report.write_json.self_s",
        "cli.main.self_s", "verify.run_suite.self_s",
    ]
    named += [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    named += ["traced_run_s", "trace_overhead"]

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith(("_ratio", "overhead")) else "count"

    return [(name, unit(name)) for name in named]


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _subprocess(argv: list[str], deadline: float) -> str:
    env = {**os.environ, **THREAD_ENV}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99, 90):
        if len(samples) * (1 - pct / 100) >= 10:
            value = statistics.quantiles(samples, n=1000)[round(pct * 10) - 1]
            return f", p{pct:g} {value:.4f} s"
    return ""


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    scenario = write_scenario(work / f"{name}.json", name, seed)

    out = work / name
    out.mkdir()
    reference = REFERENCE_DIR / f"{name}.json"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--scenario", str(scenario), "--out", str(out), "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(int(trace)),
              "--result", str(out / "result.json")]
    if seed == DEFAULT_SEED and reference.is_file():
        worker += ["--reference", str(reference)]
    _subprocess(worker, deadline)
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))

    samples, setup = res["samples"], res["setup"]
    run_s = statistics.median(samples)
    run_mean_s = math.fsum(samples) / len(samples)
    error_rate = res["failed"] / res["attempted"]
    parts = [f"run_s {run_s:.4f} s (median of {len(samples)}{_tail(samples)}, "
             f"mean {run_mean_s:.4f} s)"]
    if setup:
        parts.append(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)})")
    parts += [f"peak_rss_mb {res['peak_rss_mb']:.1f} MB",
              f"error_rate {error_rate:g} ({res['failed']} of {res['attempted']} operations)"]
    print(f"{name} ({workload.subcommand}, seed {seed}): " + ", ".join(parts))
    for problem in res["problems"]:
        print(f"  failed: {problem}")

    if trace:
        values = layer_metrics(load_spans(out / "spans.npz"))
        values["traced_run_s"] = statistics.median(res["traced"])
        values["trace_overhead"] = values["traced_run_s"] / run_s - 1.0
        top = sorted((v, k[:-len(".self_s")]) for k, v in values.items()
                     if k.endswith(".self_s") and k.count(".") == 1)
        shares = ", ".join(f"{layer} {v / values['traced_run_s']:.1%}"
                           for v, layer in reversed(top[-4:]))
        print(f"  traced op {values['traced_run_s']:.4f} s "
              f"(median of {len(res['traced'])}); self time: {shares}")
        missing = [n for n, _ in PER_LAYER if n not in values]
        if missing:  # a function that no longer exists reads 0
            print(f"  not traced: {', '.join(missing)}")
        metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in PER_LAYER}
    else:
        values = {"run_mean_s": run_mean_s, "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def write_reference(name: str, work: Path) -> None:
    """Record the default-seed report of ``name`` as the committed reference."""
    work.mkdir()
    scenario = write_scenario(work / f"{name}.json", name, DEFAULT_SEED)
    workload = WORKLOADS[name]
    argv = [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import histq.cli; "
            "sys.exit(histq.cli.main(sys.argv[2:]))",
            str(SRC), workload.subcommand, "--scenario", str(scenario), "--out", str(work)]
    if workload.subcommand == "verify":
        argv += ["--seed", str(DEFAULT_SEED)]
    _subprocess(argv, time.monotonic() + RUN_TIMEOUT_S)
    report = json.loads((work / f"{workload.subcommand}.json").read_text(encoding="utf-8"))
    report["scenario"]["source"] = f"<{name}.json>"
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                encoding="utf-8")
    print(f"wrote {REFERENCE_DIR / (name + '.json')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the seed-{DEFAULT_SEED} reports in bench/reference/")
    args = parser.parse_args(argv)

    if not (SRC / "histq" / "cli.py").is_file():
        print(f"error: no histq sources under {SRC}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        for name in names:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            if args.write_reference:
                write_reference(name, work / name)
                continue
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  work, deadline)
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
