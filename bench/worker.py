"""One workload, run in its own process as a closed-loop client of ``histq.cli.main``.

Invoked by ``run.py``; not meant to be run by hand.  Each operation is one
CLI subcommand call whose report is read back and checked before the next
call starts.  The first call is a warm-up: it is checked (and compared with
the committed reference when one is given) but not timed.  Then operations
run until the next one would end after ``--seconds``; at least one always
runs.  With ``--trace 0`` the set-up cost (``setup_probe.py``) is also
timed ``SETUP_REPEATS`` times in fresh processes, spread over the timed
window between operations so that the median sees the same spread of
machine load as the operations do.  With ``--trace 1`` untraced and traced operations alternate (up to
``MAX_TRACED`` traced ones, to bound span memory), the spans are written to
``<out>/spans.npz`` and the result file holds both sets of timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from check import check_report, compare_reference  # noqa: E402
from layertrace import Tracer  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402

import histq.cli  # noqa: E402

MAX_TRACED = 4
SETUP_REPEATS = 15
MAX_PROBLEMS = 5


class Client:
    """Issues operations, checks each report and counts failures."""

    def __init__(self, argv: list[str], report: Path, subcommand: str):
        self.argv = argv
        self.report = report
        self.subcommand = subcommand
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def run(self) -> tuple[float, dict | None]:
        """One operation: wall seconds and the parsed report (None if it failed)."""
        self.attempted += 1
        self.report.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = histq.cli.main(self.argv)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - start
            self.fail([f"raised {type(exc).__name__}: {exc}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail([f"exit code {code}"])
            return elapsed, None
        data = self.report.read_bytes()
        if self.first is None:
            self.first = data
        elif data != self.first:
            self.fail(["report differs from the first report of this run"])
            return elapsed, None
        payload = json.loads(data)
        problems = check_report(self.subcommand, payload)
        if problems:
            self.fail(problems)
            return elapsed, None
        return elapsed, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    cli_argv = [workload.subcommand, "--scenario", args.scenario, "--out", str(out / "report")]
    if workload.subcommand == "verify":
        cli_argv += ["--seed", str(args.seed)]
    client = Client(cli_argv, out / "report" / f"{workload.subcommand}.json",
                    workload.subcommand)

    _, payload = client.run()
    if payload is not None and args.reference:
        expected = json.loads(Path(args.reference).read_text(encoding="utf-8"))
        problems = compare_reference(payload, expected)
        if problems:
            client.fail(["reference mismatch: " + p for p in problems])

    tracer = Tracer() if args.trace else None
    samples: list[float] = []
    traced: list[float] = []
    setup: list[float] = []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    probe_due = [] if args.trace else [
        begin + (i + 0.5) * args.seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), args.scenario]

    def run_probes(until: float) -> None:
        while probe_due and probe_due[0] <= until:
            probe_due.pop(0)
            seconds = subprocess.run(probe, capture_output=True, text=True, check=True).stdout
            setup.append(float(seconds))

    def fits(times: list[float]) -> bool:
        return not times or time.perf_counter() + statistics.median(times) <= deadline

    while fits(samples):
        samples.append(client.run()[0])
        run_probes(time.perf_counter())
        if tracer is not None and len(traced) < MAX_TRACED and fits(traced):
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(client.run()[0])
            finally:
                tracer.uninstall()
    run_probes(float("inf"))
    if tracer is not None:
        tracer.save(out / "spans.npz")

    result = {
        "samples": samples,
        "setup": setup,
        "traced": traced,
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
