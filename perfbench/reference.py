"""Reference figures quoted in the README (not part of a benchmark run).

    python3 perfbench/reference.py

Prints, each measured in its own fresh sequential process:

- cold-cache compile work of each compiled workload's problem: the
  ``fill`` step run against an empty JIT directory;
- the warm step of ``c48_compiled_seq``'s problem on the numpy and on
  the compiled backend;
- the warm step of ``c24r24_compiled_procs2``'s problem in one
  sequential process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from model import WORKLOADS, config_of, now  # noqa: E402
from run import child_env  # noqa: E402

#: warm steps timed per sequential step figure
STEPS = 8


def child(workload: str) -> dict:
    """Warm sequential steps of the control of ``workload``'s problem."""
    from repro.run import EnsembleDriver

    w = WORKLOADS[workload]
    driver = EnsembleDriver(w.scenario, config_of(w), members=(0,),
                            executor="sequential")
    driver.step(1)
    times = []
    for _ in range(STEPS):
        t = now()
        driver.step(1)
        times.append(now() - t)
    driver.close()
    return {"step_s.p50": statistics.median(times)}


def spawn(args, env) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    me = os.path.join(HERE, "reference.py")
    for name, w in WORKLOADS.items():
        if w.backend != "compiled":
            continue
        env = child_env("compiled")
        env["REPRO_JIT_DIR"] = os.path.join(
            ROOT, ".bench_build", f"cold-jit-{os.getpid()}")
        out = os.path.join(ROOT, ".bench_build", f"cold-{os.getpid()}.npz")
        try:
            cold = spawn([os.path.join(HERE, "model.py"), "fill",
                          "--workload", name, "--seed", "1", "--out", out],
                         env)
        finally:
            shutil.rmtree(env["REPRO_JIT_DIR"], ignore_errors=True)
            if os.path.exists(out):
                os.unlink(out)
        print(f"{name}: cold fill {cold['fill_s']:.1f} s, "
              f"jit engine {cold['jit.engine']}, "
              f"jit.compiles {cold['jit.compiles']}, "
              f"jit.compile_s {cold['jit.compile_s']:.1f}")
    for name, backend in (("c48_compiled_seq", "numpy"),
                          ("c48_compiled_seq", "compiled"),
                          ("c24r24_compiled_procs2", "compiled")):
        fig = spawn([me, "--child", name], child_env(backend))
        print(f"{name} problem, {backend}, sequential: warm step "
              f"{fig['step_s.p50']:.3f} s (median of {STEPS})")
    print(f"host cores: {os.cpu_count()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
