"""cpdyn benchmark: repeated rounds of `cpdyn.cli.run` reports, one workload
per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --repeat 10 [--seed N --seconds S --trace T]
    python3 bench/run.py --smoke
    python3 bench/run.py --reference

A run with `--trace 0` times rounds for S seconds and prints the
end-to-end metrics `round_rel.p50`, `peak_rss_mb` and `setup_s`.  Each
round is divided by the time of the fixed computation in `yardstick.py`
timed around it, which takes the host's changing speed out of the figure;
the plain wall times are printed too.  A run with
`--trace 1` spends half of S on untraced rounds and half on traced ones (the
first of them records memory peaks and is not timed) and prints the
per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--repeat` runs N seeds of one workload in turn and prints each metric's
median and quartiles; `--smoke` runs one untraced and one traced round of
every workload; `--reference` times the cap-size subspace reports that are
too slow to repeat.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 9
YARDSTICK_SHARE = 0.04  # yardstick time after each round, as a share of the round

sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402  (needs BENCH on sys.path)
from yardstick import yardstick  # noqa: E402

REFERENCE_REPORTS = (
    ("demo", "2", "--ds", "8", "--de", "8", "--trials", "2"),
    ("theorem1", "--family", "full", "--ds", "4", "--de", "16", "--g", "local", "--trials", "2"),
    ("demo", "1", "--ds", "8"),
)


def steal_ticks() -> int | None:
    """Hypervisor steal time of the host so far, in USER_HZ ticks."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def run_round(cli, workload: str, seed: int, index: int, tracer=None):
    """One round: returns (seconds around the cli.run calls, failures)."""
    argvs = workloads.round_argvs(workload, seed, index)
    results = []
    failures = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # the reports cli.run prints
        for argv in argvs:
            try:
                results.append((argv, *cli.run(argv)))
            except (Exception, SystemExit) as exc:  # a report that dies fails its round
                failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    for argv, report, code in results:
        failures += workloads.check_report(argv, report, code)
    if tracer is not None:
        failures += tracer.end_round(keep=not failures)
    return elapsed, failures


def run_phase(cli, workload: str, seed: int, seconds: float, tracer=None):
    """Rounds 0, 1, ... until the next round would end after `seconds`.

    Returns, for each passing round, its seconds and the yardstick's
    seconds per pass around it (the mean of the yardstick timed just before
    and just after it), with the rounds attempted and failed.
    """
    times, failed, attempted = [], 0, 0
    start = time.monotonic()
    before = yardstick()
    while True:
        t_iter = time.monotonic()
        elapsed, failures = run_round(cli, workload, seed, attempted, tracer)
        after = yardstick(YARDSTICK_SHARE * elapsed)
        attempted += 1
        if failures:
            failed += 1
            for f in failures[:5]:
                print(f"round {attempted - 1} failed: {f}", file=sys.stderr)
        else:
            times.append((elapsed, (before + after) / 2))
        before = after
        now = time.monotonic()
        if now - start + (now - t_iter) > seconds:
            return times, attempted, failed


def medians(rounds: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Median over rounds of seconds per yardstick, of seconds, and of the
    yardstick's seconds."""
    if not rounds:
        return (float("nan"),) * 3
    med = statistics.median
    return (med(s / y for s, y in rounds), med(s for s, _ in rounds), med(y for _, y in rounds))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter to the point where cpdyn
    is imported and the first round's inputs are built, per launch."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def probe(workload: str, seed: int):
    from cpdyn import cli

    parser = cli.build_parser()
    for argv in workloads.round_argvs(workload, seed, 0):
        parser.parse_args(argv)
    print(time.monotonic())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    compileall.compile_dir(str(SRC / "cpdyn"), quiet=1)
    setup = [] if trace else measure_setup(workload, seed)
    from cpdyn import cli

    yardstick()  # warm-up: the first pass pays for numpy's lazy set-up
    steal0, wall0 = steal_ticks(), time.monotonic()
    if trace:
        from tracing import OVERHEAD_METRIC, Tracer, metric_units

        plain, att0, fail0 = run_phase(cli, workload, seed, seconds / 2)
        tracer = Tracer()
        tracer.install()
        t_mem = time.monotonic()
        tracer.track_memory = True
        mem_failures = run_round(cli, workload, seed, 0, tracer)[1]
        tracer.track_memory = False
        for f in mem_failures[:5]:
            print(f"memory round failed: {f}", file=sys.stderr)
        rest = seconds / 2 - (time.monotonic() - t_mem)
        traced, att1, fail1 = run_phase(cli, workload, seed, rest, tracer)
        attempted, failed = att0 + att1 + 1, fail0 + fail1 + bool(mem_failures)
    else:
        plain, attempted, failed = run_phase(cli, workload, seed, seconds)
    steal1, wall1 = steal_ticks(), time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"rounds {attempted} attempted, {failed} failed")
    steal = "unavailable" if steal0 is None else f"{steal1 - steal0} ticks"
    print(f"host steal over {wall1 - wall0:.1f} s: {steal}")
    rel50, p50, yard50 = medians(plain)
    print(f"round_rel.p50 {rel50:.3f} yardsticks over {len(plain)} untraced rounds; "
          f"median round {p50:.4f} s, median yardstick {1000 * yard50:.2f} ms")
    if trace:
        layer = tracer.metrics() if tracer.rounds else {}
        trel50, t50, _ = medians(traced)
        # in seconds at the run's median host speed, so that a slow stretch
        # in one half of the run does not show as overhead
        layer[OVERHEAD_METRIC] = (trel50 - rel50) * yard50
        print(f"traced round_rel.p50 {trel50:.3f} over {len(traced)} rounds (median {t50:.4f} s), "
              f"overhead {layer[OVERHEAD_METRIC]:+.4f} s")
        units = metric_units()
        metrics = {k: {"value": layer.get(k, float("nan")), "unit": u} for k, u in units.items()}
        shares = sorted(
            ((v, k) for k, v in layer.items() if k.endswith(".s") and v > 0), reverse=True
        )
        for v, k in shares[:12]:
            print(f"  {k:45s} {v:9.4f} s  {100 * v / t50:5.1f}% of a traced round")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed, "rounds": tracer.rounds,
                                    "peak_bytes": tracer.peak_bytes, "metrics": layer}) + "\n")
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "round_rel.p50": {"value": rel50, "unit": "yardstick"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"peak_rss_mb {rss_mb:.1f} MB")
        print("setup_s {:.4f} s, median of {} launches: {}".format(
            statistics.median(setup), len(setup), " ".join(f"{s:.3f}" for s in setup)))
    correct = bool(plain) and failed == 0 and (not trace or bool(tracer.rounds))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def child_run(args: list[str], timeout: float = 300) -> tuple[dict | None, list[str]]:
    """Run this script in a fresh process; returns its result and its other output."""
    out = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True,
                         timeout=timeout)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def repeat(workload: str, seed: int, seconds: float, trace: int, n: int) -> int:
    """Run `n` seeds of one workload and print each metric's quartiles."""
    runs = []
    for i in range(n):
        res, lines = child_run(["--workload", workload, "--seed", str(seed + i),
                                "--seconds", str(seconds), "--trace", str(trace)])
        if res is None:
            print(f"seed {seed + i}: run failed")
            return 1
        runs.append(res)
        print(f"seed {seed + i}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}  " + "  ".join(
                  f"{k}={m['value']:.4g}" for k, m in res["metrics"].items() if not trace)
              + "  " + next((ln for ln in lines if ln.startswith("host steal")), ""))
    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "unit": m["unit"]}
        if not trace or name.endswith((".calls", "overhead_s")):
            print(f"{name:45s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {spread:.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat-{workload}-trace{trace}-seed{seed}.json"
    path.write_text(json.dumps({"runs": runs, "summary": summary}) + "\n")
    print(f"runs written to {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in runs) else 1


def smoke(seed: int) -> int:
    """One untraced and one traced round of every workload, with all checks."""
    ok = True
    for workload in workloads.ROUNDS:
        res, _ = child_run(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"])
        good = res is not None and res["correct"] and res["failed"] == 0
        ok &= good
        print(f"{workload:14s} {'ok' if good else 'FAILED'}"
              + ("" if res is None else f"  attempted {res['attempted']} failed {res['failed']}"))
    return 0 if ok else 1


def reference(seed: int) -> int:
    """Time each cap-size subspace report once, in its own process."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ok = True
    for i, argv in enumerate(REFERENCE_REPORTS):
        path = OUT / f"reference-{i}.json"
        cmd = [sys.executable, "-m", "cpdyn.cli", *argv, "--seed", str(seed), "--out", str(path)]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t0
        passed = proc.returncode == 0 and json.loads(path.read_text())["summary"]["pass"]
        ok &= passed
        print(f"{' '.join(argv):60s} {wall:7.1f} s  {usage.ru_maxrss / 2**20:5.2f} GB  "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(workloads.ROUNDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, metavar="N", help="run N seeds of one workload")
    p.add_argument("--smoke", action="store_true", help="one round of every workload")
    p.add_argument("--reference", action="store_true", help="time the cap-size subspace reports")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "cpdyn" / "__init__.py").is_file():
        print(f"error: no cpdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if args.smoke:
        return smoke(args.seed)
    if args.reference:
        return reference(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
