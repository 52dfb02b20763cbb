"""Steadiness check: run each workload repeatedly and print, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --runs 10 --seconds 8
    python3 perfbench/steady.py --runs 5 --workload c24r24_compiled_procs2

Run ``i`` uses seed ``i`` (1..N), so the spread covers both the noise of
the host and the spread over the seeded inputs. Next to ``setup_s``,
which is the median of several set-up samples per run, the line
``setup_s.single`` gives the spread of the timed process's own sample
alone. The bounds in ``BENCHMARK.json`` are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from model import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> tuple:
    """(result, the timed process's own set-up sample) of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, check=True,
    )
    lines = proc.stdout.decode().strip().splitlines()
    samples = next(line for line in lines if "set-up samples" in line)
    return json.loads(lines[-1]), float(samples.split()[-1])


def spread(values) -> tuple:
    """(median, (Q3 - Q1) / median) as ``statistics.quantiles`` gives
    the quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else 0.0)


def show(name: str, unit: str, values) -> None:
    med, rel = spread(values)
    print(f"  {name:16s} median {med:12.6g} {unit:6s} "
          f"spread {100 * rel:6.2f}%  "
          f"[{' '.join(f'{v:.4g}' for v in values)}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args(argv)
    for workload in args.workload or list(WORKLOADS):
        runs = [one_run(workload, seed, args.seconds)
                for seed in range(1, args.runs + 1)]
        results = [result for result, _ in runs]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"{workload}: {args.runs} runs, correct "
              f"{all(r['correct'] for r in results)}, failed/attempted "
              f"{', '.join(f'{f}/{a}' for f, a in shares)}")
        for name, metric in results[0]["metrics"].items():
            show(name, metric["unit"],
                 [r["metrics"][name]["value"] for r in results])
        show("setup_s.single", "s", [single for _, single in runs])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
