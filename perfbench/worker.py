"""The job process: runs hermsig CLI jobs in process, one at a time.

Usage: python3 worker.py JOBLIST

It imports hermsig and loads the job list, prints ``ready`` and the mean
probe time over that set-up (see below), then reads one command line from
stdin:

  quit                        exit (a set-up measurement only)
  timed SECONDS OUT           run whole rounds for about SECONDS (at least one)
  fixed ROUNDS OUT            run the first ROUNDS rounds
  traced ROUNDS OUT           the same under the per-layer tracer, then time
                              the kernel operations with the tracer removed

and writes its results as JSON to OUT.  Each job is
``hermsig.cli.run(["--seed", S, CMD, "--config", FILE])`` with stdout
captured; the loop is closed, the next job starts when the last returns.  A
fixed reference probe runs between jobs and on a timer inside each job, and
each job result carries the mean probe time over its span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter

def _probe_once() -> float:
    start = perf_counter()
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(1, 41):
        s += a * Fraction(i, 13)
    return perf_counter() - start


def probe() -> float:
    """Seconds for a fixed piece of pure-Python Fraction arithmetic.

    It shares no code with hermsig; its time tracks how fast the machine
    runs interpreted code at that moment.
    """
    return sorted(_probe_once() for _ in range(3))[1]


# while a job runs, SIGALRM takes one probe sample FIRST_SAMPLE_S after it
# starts and then every SAMPLE_EVERY_S (every SETUP_SAMPLE_EVERY_S during
# set-up), so that the machine's speed is known over the whole span
FIRST_SAMPLE_S = 0.002
SAMPLE_EVERY_S = 0.025
SETUP_SAMPLE_EVERY_S = 0.005
_samples: list[float] = []
cli = None  # hermsig.cli, imported by main() while set-up is sampled


def _sample(signum, frame):
    _samples.append(_probe_once())


# a pass with a time budget starts another round only while the round would
# end within this multiple of the budget, going by the mean round so far
OVERRUN = 1.2


def run_job(job):
    cmd, seed, path = job
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(["--seed", str(seed), cmd, "--config", path])
    except SystemExit as e:  # argparse rejects
        code = e.code if isinstance(e.code, int) else 2
        error = f"SystemExit({e.code!r})"
    except Exception:
        code = None
        error = traceback.format_exc()
    latency = perf_counter() - start
    return code, buf.getvalue(), latency, error


def run_rounds(rounds, limit_rounds=None, seconds=None):
    """Closed loop over whole rounds; cycles the list if it runs out."""
    results = []
    start = perf_counter()
    done = 0
    while True:
        elapsed = perf_counter() - start
        if limit_rounds is not None and done >= limit_rounds:
            break
        if seconds is not None and done and (
            elapsed >= seconds or elapsed * (done + 1) / done > OVERRUN * seconds
        ):
            break
        ri = done % len(rounds)
        before = probe()
        for ji, job in enumerate(rounds[ri]):
            _samples.clear()
            signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S, SAMPLE_EVERY_S)
            try:
                code, out, latency, error = run_job(job)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = probe()
            speed = (before + after + sum(_samples)) / (2 + len(_samples))
            results.append([ri, ji, code, out, latency, error, speed])
            before = after
        done += 1
    wall = perf_counter() - start
    return {"jobs": results, "wall_s": wall, "rounds": done}


def main() -> int:
    global cli
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S, SETUP_SAMPLE_EVERY_S)
    import hermsig.cli as cli

    with open(sys.argv[1], encoding="utf-8") as fh:
        rounds = json.load(fh)
    signal.setitimer(signal.ITIMER_REAL, 0)
    print("ready", flush=True)
    speed = sum(_samples) / len(_samples) if _samples else probe()
    print(f"probe {speed!r}", flush=True)
    line = sys.stdin.readline().split()
    if not line or line[0] == "quit":
        return 0
    mode, amount, out_path = line
    if mode == "timed":
        result = run_rounds(rounds, seconds=float(amount))
    elif mode == "fixed":
        result = run_rounds(rounds, limit_rounds=int(amount))
    elif mode == "traced":
        import tracer

        t = tracer.Tracer()
        t.install()
        try:
            result = run_rounds(rounds, limit_rounds=int(amount))
        finally:
            t.uninstall()
        result["trace"] = t.metrics()
        result["layer_calls"] = dict(t.layer_calls())
        result["per_op_us"] = tracer.per_op_us()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
