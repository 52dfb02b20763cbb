"""Dycore benchmark: one workload, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload c48_compiled_seq --seed 1 \
        --seconds 8 --trace 0

Every model process is a fresh child of this script (see ``model.py``):

1. ``fill`` (compiled workloads): one sequential, untimed process fills
   the benchmark's own JIT disk cache under ``.bench_build/``;
2. ``setup`` x (SETUP_SAMPLES - 1): fresh processes that stop after the
   first step (skipped with ``--trace 1``);
3. ``timed``: a fresh process that is also a set-up sample, then the
   checked forecast with every warm step timed, then the checks;
4. ``reference`` (``c48_compiled_seq`` only): the numpy half of the
   compiled == numpy check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from model import WORKLOADS, now  # noqa: E402

#: fresh set-up processes per run; set-up is reported as their median
SETUP_SAMPLES = 3
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s", "step_s.p50": "s", "sypd": "SYPD", "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def child_env(backend: str) -> dict:
    """The model's environment: only the benchmark's own REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one OpenMP thread per rank: with two threads on this class of
    # 2-core host, warm steps of identical runs spread by a third
    env["REPRO_THREADS"] = "1"
    env["REPRO_JIT_DIR"] = os.path.join(ROOT, ".bench_build", "repro-jit")
    env["REPRO_BACKEND"] = backend
    return env


def run_child(mode: str, args, backend: str, extra=(), env=None) -> dict:
    """Run one model process to completion; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "model.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = now()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=dict(child_env(backend), **(env or {})),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} process timed out") from None
    finally:
        # rank workers of a killed parent must not outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    xfile = os.path.join(scratch, f"{args.workload}-{os.getpid()}.npz")
    io = ["--out", xfile]
    try:
        if w.backend == "compiled":
            run_child("fill", args, w.backend, io)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(
                    run_child("setup", args, w.backend)["split"]["setup_s"]
                )
        # traced process runs: the workers' split comes from repro.obs
        trace_env = {"REPRO_TRACE": "1"} if args.trace and w.workers else {}
        timed = run_child(
            "timed", args, w.backend,
            io + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=trace_env,
        )
        checks = timed["checks"]
        if w.crosscheck == "numpy":
            checks.append(run_child("reference", args, "numpy", io)["check"])
    finally:
        if os.path.exists(xfile):
            os.unlink(xfile)
    setups.append(timed["metrics"]["setup_s"])

    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        print(f"check failed: member {c['member']} {c['check']}: "
              f"{c['detail']}")
    # an expected failure that passes (once the leak is mended) is fine
    correct = all((c["member"], c["check"]) in w.expected_failures
                  for c in failed)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in timed["traced"].items()}
    else:
        values = dict(timed["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in UNITS}
    # the timed process's own sample is the last one
    print(f"{args.workload}: {timed['timed_steps']} timed steps, "
          f"set-up samples {' '.join(repr(s) for s in setups)}")
    return {"correct": correct, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no model source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
