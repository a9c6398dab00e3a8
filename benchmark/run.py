#!/usr/bin/env python3
"""The cubicff benchmark: a closed loop with one client over `cfftool`.

    python3 benchmark/run.py --workload analyze_mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from `src/`.  One
process and one thread call `cubicff.cfftool.main(argv)` in-process; the
next op starts when the previous one returns, and process-global caches
persist across ops as they do for a library caller.  Each op runs under an
in-process interval timer (`op_budget`).  Between batches, outside the
timed loop, the oracle checks every answer; wrong answers count as failed
ops.  The workloads draw no input of a known-defect class, so no op should
fail; after the timed loop, one fixed input of each class is run and what
the program does with it is printed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the first `CORPUS_OPS` ops are replayed
after a fresh set-up, with spans around each layer, and the JSON holds the
per-layer metrics.  Lines before it print every metric with its unit, the
failure counts, the checks the oracle could not decide, and a sha256 of the
concatenated outputs of the first `CORPUS_OPS` ops, and the known-defect
probes.
Details and the workloads: benchmark/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# an op may take BUDGET_BASE_S plus BUDGET_PER_PLACE_S for each --place it
# names; past its budget it fails.  The ops of the workloads take under
# 0.7 s, or up to about 2 s where one first builds a residue field's tables
BUDGET_BASE_S = 5.0
BUDGET_PER_PLACE_S = 0.1
PROBE_BUDGET_S = 1.0  # budget of each known-defect probe
ORACLE_BUDGET_S = 10.0  # per-op oracle budget; past it the op's checks are undecided
SETUP_REPS = 5  # set-up runs per benchmark run; setup_s is their median
SRC = os.path.join(ROOT, "src")
BATCH = 25  # ops generated at a time, outside the timed loop
# the first ops of the timed loop, the same for every run of a seed: the
# traced run replays them and the output digest covers them
CORPUS_OPS = 200


class OverBudget(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise OverBudget()


@contextlib.contextmanager
def time_limit(seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def op_budget(argv) -> float:
    return BUDGET_BASE_S + BUDGET_PER_PLACE_S * argv.count("--place")


# -- set-up ------------------------------------------------------------------


def build_tables(gfq, q_values):
    """The tables of every base field, with the F_{q^2} tables for q = 2 mod 3."""
    for q in q_values:
        F = gfq.make_field_q(q)
        if F.q % 3 == 2:
            ext = gfq.quad_ext(F)
            ext.mul(ext.gen(), ext.gen())  # the F_{q^2} tables are built on first use


def setup_seconds(q_values) -> float:
    """Import cubicff and build the tables of `q_values`; run in a fresh
    interpreter by `timed_setup`."""
    start = time.perf_counter()
    from cubicff import cfftool, gfq  # noqa: F401

    build_tables(gfq, q_values)
    return time.perf_counter() - start


def timed_setup(q_values) -> float:
    """One set-up in a fresh interpreter, which times itself (its own start
    is not counted).  Its memory stays out of this process's peak RSS, and
    the timed loop's modules and caches are left alone."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import run; print(run.setup_seconds({list(q_values)!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def fresh_cfftool(q_values):
    """cubicff imported anew, with empty process-global caches, and the
    tables of `q_values` built."""
    for name in [n for n in sys.modules if n == "cubicff" or n.startswith("cubicff.")]:
        del sys.modules[name]
    cfftool = importlib.import_module("cubicff.cfftool")
    build_tables(importlib.import_module("cubicff.gfq"), q_values)
    return cfftool


# -- the timed loop ----------------------------------------------------------


class Record:
    __slots__ = ("argv", "outcome", "elapsed", "stdout", "failure")

    def __init__(self, argv, outcome, elapsed, stdout):
        self.argv = argv
        self.outcome = outcome  # cfftool exit code, or a failure name
        self.elapsed = elapsed
        self.stdout = stdout  # dropped once the op is checked
        self.failure = None  # why the op failed, once checked


def run_op(cfftool, argv, budget=None) -> Record:
    buf = io.StringIO()
    real_stdout = sys.stdout
    start = time.perf_counter()
    try:
        with time_limit(budget or op_budget(argv)):
            sys.stdout = buf
            outcome = cfftool.main(argv)  # looked up per op, so a traced main is seen
    except OverBudget:
        outcome = "over_budget"
    except SystemExit as exc:
        outcome = f"system_exit_{exc.code}"
    except Exception as exc:  # an uncaught library error fails the op
        outcome = f"exception_{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout = real_stdout
    return Record(argv, outcome, time.perf_counter() - start, buf.getvalue())


def timed_loop(cfftool, next_batch, seconds=None, on_op=None, between=None):
    """Run ops until `seconds` of loop time have passed (or `next_batch`
    runs dry).  Input generation, and `between(records, wall)` before each
    batch, are outside the timed loop.  Returns the records and the loop's
    wall time."""
    records, wall = [], 0.0
    while seconds is None or wall < seconds:
        if between is not None:
            between(records, wall)
        batch = next_batch()
        if not batch:
            break
        start = time.perf_counter()
        for argv in batch:
            if on_op is not None:
                on_op(len(records))
            records.append(run_op(cfftool, argv))
            if seconds is not None and time.perf_counter() - start + wall >= seconds:
                break
        wall += time.perf_counter() - start
    return records, wall


# -- checking ----------------------------------------------------------------


class Checker:
    """Checks finished ops with the oracle, between batches and so outside
    the timed loop.  A checked op keeps its time and failure, and its argv
    if it failed or is one of the first CORPUS_OPS (the traced run replays
    those); its output goes into the digest of the first CORPUS_OPS ops and
    is dropped.  So the benchmark's own memory does not grow with the ops
    a run makes, and peak_rss_mb is the program's."""

    def __init__(self, oracle, fields):
        self.oracle = oracle
        self.fields = fields
        self.done = 0
        self.undecided = 0  # checks the oracle could not decide
        self.errors = 0  # faults of the oracle, not of the program
        self.digest = hashlib.sha256()

    def check(self, records):
        for rec in records[self.done :]:
            rec.failure = self.failure(rec)
            if self.done < CORPUS_OPS:
                self.digest.update(rec.stdout.encode())
            elif rec.failure is None:
                rec.argv = None
            rec.stdout = None
            self.done += 1

    def failure(self, rec):
        """Why the op failed, or None."""
        if rec.outcome not in (0, 3):
            return rec.outcome if isinstance(rec.outcome, str) else f"exit_{rec.outcome}"
        try:
            report = json.loads(rec.stdout)
        except ValueError:
            return "not_json"
        problem = self.oracle.report_problem(self.fields, rec.argv, rec.outcome, report)
        if problem is not None:
            print(f"unreadable: {' '.join(rec.argv)} :: {problem}", file=sys.stderr)
            return "unreadable_report"
        try:
            with time_limit(ORACLE_BUDGET_S):
                verdict = self.oracle.check_op(self.fields, rec.argv, rec.outcome, report)
        except OverBudget:
            self.undecided += 1
            return None
        except Exception as exc:  # the report was readable: the oracle broke
            print(f"oracle error on {rec.argv}: {exc!r}", file=sys.stderr)
            self.errors += 1
            return None
        self.undecided += verdict.undecided
        if verdict.wrong:
            print(f"wrong: {' '.join(rec.argv)} :: {verdict.wrong[0]}", file=sys.stderr)
            return "wrong"
        return None


def percentile(values, fraction):
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def end_to_end(records, wall, setup_times, failed, peak_rss_kb):
    attempted = len(records)
    # a failed op counts at the budget plus its own time, behind every success
    latency = [r.elapsed + (op_budget(r.argv) if r.failure else 0.0) for r in records]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "op_p50_ms": (1000 * percentile(latency, 0.50), "ms"),
        "op_p90_ms": (1000 * percentile(latency, 0.90), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def probe_known_defects(cfftool, oracle, fields, probes):
    """Run the fixed input of each known-defect class (outside the timed
    loop) and say what the program does with it: a failure reason, or
    None where the defect no longer shows."""
    checker = Checker(oracle, fields)
    records = [run_op(cfftool, argv, PROBE_BUDGET_S) for _, argv in probes]
    checker.check(records)
    return [(item, rec.failure, argv) for (item, argv), rec in zip(probes, records)]


# -- main --------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cubicff", "__init__.py")):
        print(f"no cubicff sources in {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    signal.signal(signal.SIGALRM, _on_alarm)

    # the first import of cubicff in this process: the timed loop's
    import oracle  # noqa: E402  (needs the paths above)
    import workloads  # noqa: E402
    from cubicff import cfftool, gfq  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    build_tables(gfq, workloads.Q_VALUES)
    stream = workloads.OpStream(args.workload, args.seed)

    checker = Checker(oracle, stream.fields)
    # setup_s: set-ups spread over the run, one before each quarter of the
    # timed loop and one after it, so that a few seconds of a fast or slow
    # machine do not decide the median
    setup_times = []

    def between(records, wall):
        checker.check(records)
        if wall >= len(setup_times) * args.seconds / (SETUP_REPS - 1):
            setup_times.append(timed_setup(workloads.Q_VALUES))

    records, wall = timed_loop(cfftool, lambda: stream.take(BATCH), args.seconds, between=between)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker.check(records)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(timed_setup(workloads.Q_VALUES))
    defects = probe_known_defects(cfftool, oracle, stream.fields, workloads.KNOWN_DEFECTS)

    attempted = len(records)
    failed = sum(1 for r in records if r.failure)
    wrong = sum(1 for r in records if r.failure == "wrong")

    if args.trace:
        import spans

        cfftool = fresh_cfftool(workloads.Q_VALUES)
        tracer = spans.Tracer()
        tracer.install()
        prefix = records[:CORPUS_OPS]
        batches = iter([[r.argv for r in prefix]])
        traced, traced_wall = timed_loop(cfftool, lambda: next(batches, []), on_op=tracer.begin_op)
        tracer.uninstall()
        metrics = tracer.layer_metrics(len(traced), traced_wall, sum(r.elapsed for r in prefix))
    else:
        metrics = end_to_end(records, wall, setup_times, failed, peak_rss_kb)

    digest = checker.digest.hexdigest()
    reasons = {}
    for r in records:
        if r.failure:
            reasons[r.failure] = reasons.get(r.failure, 0) + 1

    w = args.workload
    for name, (value, unit) in metrics.items():
        print(f"{w}  {name:44s} {value:14.6f} {unit}")
    print(f"{w}  {'failed_ratio':44s} {failed / attempted:14.6f} share")
    print(f"{w}  {'wrong_ratio':44s} {wrong / attempted:14.6f} share")
    print(f"{w}  attempted {attempted}  failed {failed}  by reason {json.dumps(reasons, sort_keys=True)}")
    print(
        f"{w}  latency samples {attempted}  op budget {BUDGET_BASE_S} s + {BUDGET_PER_PLACE_S} s per place"
        f"  loop wall {wall:.3f} s"
    )
    print(f"{w}  oracle checks undecided {checker.undecided}  oracle errors {checker.errors}")
    print(f"{w}  output sha256 of the first {CORPUS_OPS} ops {digest}")
    for item, failure, argv in defects:
        print(f"{w}  known defect, ROADMAP item {item}: {failure or 'no longer shows'} :: {' '.join(argv)}")
    if args.trace:
        print(f"{w}  spans {len(tracer.spans)}  absent {json.dumps(tracer.absent)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{w}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.write(stem + ".spans.jsonl.gz")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "attempted": attempted,
                "failed": failed,
                "wrong": wrong,
                "failure_reasons": reasons,
                "undecided_checks": checker.undecided,
                "output_sha256": digest,
                "known_defects": [{"item": i, "failure": f, "argv": a} for i, f, a in defects],
                "setup_times_s": setup_times,
                "ops": [[r.elapsed, r.failure, r.argv] for r in records],
            },
            fh,
            indent=1,
        )

    result = {
        "correct": checker.errors == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
