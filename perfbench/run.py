"""The repository benchmark: four workloads, end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

A run is made of cold reps, each a fresh interpreter (``pricing.py`` or
``serve_client.py``) with a fixed ``PYTHONHASHSEED``, one BLAS thread and
fresh cache directories.  A *full* rep times setup and then the
workload's fixed work.  With ``--trace 0`` the run makes rounds of
``ROUND`` full reps until ``--seconds`` of setup plus work have been
measured; each end-to-end metric is the median over those reps.  With
``--trace 1`` each full rep is followed by a rep of the same seed traced
by ``layers.py``, under the same rule.  The per-layer metrics are the
mean over the traced reps; ``trace.overhead_s`` is the median over the
pairs of traced minus untraced ``wall_s``, and ``trace.span_cost_s`` the
spans of a traced rep times the measured cost of one span.

The k-th rep of a kind gets the seed ``--seed`` + k, so each round of
``explore`` reps prices both golden campaigns and each round of
``serve`` reps three read plans: every run does the same work whatever
its seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package sources beside ``perfbench/`` the run exits 2 and prints none.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: Reps of each kind per run, and the round that further reps come in.
#: Host speed moves single reps by ~15%, so one rep is never a result;
#: ``explore`` takes its two golden campaigns in one round.  ``serve``
#: runs two processes on the two vCPUs, so a slow spell on either can
#: slow one rep by up to 90%: the median of three ignores that rep.
ROUND = {"sweep": 2, "sweep-jobs2": 2, "explore": 2, "serve": 3}
#: Wall-clock ceilings of one rep's process tree and of all of a run's.
REP_TIMEOUT_S = 75.0
RUN_TIMEOUT_S = 170.0

SERVE_COUNTERS = ("serve.start_s", "serve.ingest_s", "serve.cache_hit_ratio",
                  "serve.server_p50_ms", "serve.server_p99_ms",
                  "serve.errors", "serve.rejected")


def declared_units(kind):
    """Metric name -> unit of the ``end_to_end`` or ``per_layer``
    metrics ``BENCHMARK.json`` declares: the run reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def child_env(rep_dir):
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "REPRO_CACHE_DIR": os.path.join(rep_dir, "repro-cache"),
        "TMPDIR": rep_dir,
    })
    return env


def stop_group(proc):
    """SIGKILL what is left of a rep's process group and wait it out."""
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            proc.poll()  # reap the rep itself; only strays keep the group
            time.sleep(0.05)
            os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    proc.wait()


def run_rep(workload, seed, rep_dir, mode, timeout=REP_TIMEOUT_S):
    """One cold rep (*mode* full or traced) in its own process group;
    returns its JSON record."""
    os.makedirs(rep_dir)
    out = os.path.join(rep_dir, "record.json")
    script = "serve_client.py" if workload == "serve" else "pricing.py"
    command = [sys.executable, os.path.join(HERE, script),
               "--workload", workload, "--seed", str(seed),
               "--work", rep_dir, "--mode", mode, "--out", out]
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(rep_dir),
                            start_new_session=True)
    code = None
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop_group(proc)
    if code is None:
        raise RuntimeError("%s rep exceeded %.0fs" % (workload, timeout))
    if code != 0:
        raise RuntimeError("%s rep exited with %d" % (workload, code))
    with open(out) as handle:
        return json.load(handle)


def trace_metrics(reps):
    import layers

    per_rep = []
    spans_per_rep = []
    pairs = []  # (untraced, traced) reps of one seed
    for mode, record, rep_dir in reps:
        if mode == "full":
            untraced = record
            continue
        pairs.append((untraced, record))
        spans = layers.read_spans(rep_dir)
        spans_per_rep.append(len(spans))
        metrics = layers.layer_metrics(spans, record["pid"])
        for name in SERVE_COUNTERS:
            metrics[name] = record.get(name, 0.0)
        per_rep.append(metrics)
    out = {name: statistics.fmean(m[name] for m in per_rep)
           for name in per_rep[0]}
    out["trace.span_cost_s"] = (statistics.fmean(spans_per_rep)
                                * layers.span_cost_s())
    out["trace.overhead_s"] = statistics.median(
        traced["wall_s"] - untraced["wall_s"] for untraced, traced in pairs)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUND))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (explore campaign, serve "
                             "read plan; the paper sweep has none)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="setup+work time each kind of rep measures, "
                             "in whole rounds of ROUND reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/", file=sys.stderr)
        return 2

    # Byte-compile up front, so that no rep compiles a module inside a
    # timed phase (the first run in a fresh checkout would).
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(ROOT, ".perfbench_work", "%d-%d" % (
        os.getpid(), time.time_ns()))
    reps = []  # (mode, record, rep directory)

    def rep(mode, seed):
        rep_dir = os.path.join(work, "rep-%d" % len(reps))
        timeout = min(REP_TIMEOUT_S, deadline - time.monotonic())
        record = run_rep(args.workload, seed, rep_dir, mode, timeout)
        reps.append((mode, record, rep_dir))
        print("rep %d %s: %s" % (len(reps) - 1, mode,
                                 json.dumps(record, sort_keys=True)))
        sys.stdout.flush()
        return record["setup_s"] + record["wall_s"]

    def measure(modes):
        # With two modes each seed gets a rep of both, back to back, so
        # host drift falls on both alike.
        measured = count = 0
        size = ROUND[args.workload]
        while count < size or count % size or measured < args.seconds:
            for mode in modes:
                took = rep(mode, args.seed + count)
            measured += took
            count += 1

    try:
        if args.trace:
            measure(("full", "traced"))
            metrics = trace_metrics(reps)
            units = declared_units("per_layer")
        else:
            measure(("full",))
            units = declared_units("end_to_end")
            metrics = {name: statistics.median(r[name] for _, r, _ in reps)
                       for name in units}
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted = sum(r["attempted"] for _, r, _ in reps)
    failed = sum(r["failed"] for _, r, _ in reps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
