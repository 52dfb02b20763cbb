"""Model side of the dycore benchmark: one workload in one fresh process.

``run.py`` starts this file as a child process in one of four modes:

``fill``
    Build the workload's problem in one sequential process and step it,
    untimed, so that every compiled kernel is in the JIT disk cache
    before a timed process starts. For ``c24r24_compiled_procs2`` the
    filled sequential run also writes the reference states of the
    processes == sequential check.
``setup``
    Start, build the model and take the first step; report the set-up
    time and exit.
``timed``
    Set up like ``setup``, run the checked forecast with every warm step
    timed, then run the checks. With ``--trace 1`` the layer wrappers of
    ``layers.py`` are installed first and per-layer metrics are reported.
``reference``
    The numpy half of ``c48_compiled_seq``'s compiled == numpy check.

Each mode prints one JSON object as its last line of standard output.
The clock is ``CLOCK_MONOTONIC``, which is shared by all processes, so
``--t0`` (taken by the parent just before it started this process) marks
the fresh process start.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time


#: steps compared by the cross-path checks
CROSSCHECK_STEPS = 2


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Members are ``0 .. members-1`` of an ensemble whose root seed is the
    benchmark's ``--seed``; member 0 is the scenario's unperturbed
    control, so its initial state does not depend on the seed.
    """

    scenario: str
    npx: int
    npz: int
    layout: int
    n_tracers: int
    members: int
    backend: str
    #: rank worker processes (0: the sequential executor in one process)
    workers: int
    #: length of the checked forecast, in physics steps
    forecast_steps: int
    #: "numpy" (compiled == numpy), "alone" (member alone == in batch) or
    #: "sequential" (processes == sequential)
    crosscheck: str
    #: (member, check) of the checks that fail on every run because of
    #: the Σδp·area leak in DGridSolver.transport_fields; any other
    #: failure means the program's output is wrong
    expected_failures: frozenset


WORKLOADS = {
    # kernel-bound single-process baseline; 30 steps put the control's
    # mass drift (1.65e-9) past baroclinic_wave's 1e-9 tolerance
    "c48_compiled_seq": Workload(
        scenario="baroclinic_wave", npx=48, npz=10, layout=1, n_tracers=1,
        members=1, backend="compiled", workers=0, forecast_steps=30,
        crosscheck="numpy",
        expected_failures=frozenset({(0, "mass_drift")}),
    ),
    # numpy kernels: D-grid transport and sub-cycled tracer advection
    # across tile seams; 10 steps is the forecast on which the tracer
    # drift reaches 6.3e-5
    "c24_numpy_ens4_tr4": Workload(
        scenario="rotated_transport", npx=24, npz=10, layout=1, n_tracers=4,
        members=4, backend="numpy", workers=0, forecast_steps=10,
        crosscheck="alone",
        expected_failures=frozenset({(0, "tracer_drift")}),
    ),
    # communication between 24 rank threads on 2 worker processes; the
    # control's mass drift passes the 1e-9 tolerance after 25 steps at c24
    "c24r24_compiled_procs2": Workload(
        scenario="baroclinic_wave", npx=24, npz=10, layout=2, n_tracers=1,
        members=1, backend="compiled", workers=2, forecast_steps=25,
        crosscheck="sequential",
        expected_failures=frozenset({(0, "mass_drift")}),
    ),
}


# ---------------------------------------------------------------------------
# state comparison helpers
# ---------------------------------------------------------------------------

def flatten_states(states) -> dict:
    """Per-rank prognostic arrays keyed ``"<rank>.<field>"``."""
    from repro.resilience.checkpoint import STATE_FIELDS

    out = {}
    for rank, state in enumerate(states):
        for name in STATE_FIELDS:
            out[f"{rank}.{name}"] = getattr(state, name).copy()
        for i, tracer in enumerate(state.tracers):
            out[f"{rank}.tracer{i}"] = tracer.copy()
    return out


def flatten_collected(payloads, member: int) -> dict:
    """The same layout from ``ProcessRankExecutor.collect`` payloads."""
    out = {}
    for payload in payloads:
        for rank, fields in payload["members"][member]["states"].items():
            for name, value in fields.items():
                if name == "tracers":
                    for i, tracer in enumerate(value):
                        out[f"{rank}.tracer{i}"] = tracer
                else:
                    out[f"{rank}.{name}"] = value
    return out


def bit_identical(a: dict, b: dict) -> bool:
    import numpy as np

    if sorted(a) != sorted(b):
        return False
    return all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and np.array_equal(a[k].view(np.uint8), b[k].view(np.uint8))
        for k in a
    )


def save_states(path: str, arrays: dict) -> None:
    import numpy as np

    np.savez(path, **arrays)


def load_states(path: str) -> dict:
    import numpy as np

    with np.load(path) as data:
        return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def config_of(w: Workload):
    from repro.scenarios import get_scenario

    return get_scenario(w.scenario).default_config(
        npx=w.npx, npz=w.npz, layout=w.layout, n_tracers=w.n_tracers
    )


class Model:
    """The workload's model: a sequential ensemble driver, or a parent
    driver plus a process rank executor that steps it."""

    def __init__(self, w: Workload, seed: int):
        from repro.run import EnsembleDriver

        self.w = w
        self.config = config_of(w)
        # the parent driver of the process workload is never stepped: it
        # sizes the transport and evaluates the checks, as in
        # repro.run.procrun
        self.driver = EnsembleDriver(
            w.scenario, self.config, members=w.members, seed=seed,
            executor="sequential",
        )
        self.pex = None
        if w.workers:
            from repro.obs import tracer as obs
            from repro.run.procrun import _DEFAULT_MAX_POLLS, _transport_sizing
            from repro.runtime.procs import ProcessRankExecutor, WorkerSpec

            slot_bytes, n_slots = _transport_sizing(
                self.driver.engine, self.config
            )
            spec = WorkerSpec(
                scenario=w.scenario, config=self.config, seed=seed,
                member_ids=self.driver.member_ids, comm_latency=None,
                max_polls=_DEFAULT_MAX_POLLS, diagnostics=True,
                trace=obs.get_tracer().enabled,
            )
            self.pex = ProcessRankExecutor(workers=w.workers)
            self.pex.launch(spec, self.config.total_ranks, slot_bytes,
                            n_slots)

    def step(self) -> None:
        if self.pex is not None:
            self.pex.step(1)
        else:
            self.driver.step(1)

    def states_of(self, member: int) -> dict:
        """Current states of one member (after the last step)."""
        if self.pex is not None:
            return flatten_collected(self.pex.collect(), member)
        return flatten_states(self.driver.members[member].states)

    def close(self) -> None:
        if self.pex is not None:
            self.pex.close()
        self.driver.close()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def load_member(driver, member: int, arrays: dict) -> None:
    """Copy flattened arrays into a member record of ``driver``."""
    import numpy as np

    from repro.resilience.checkpoint import STATE_FIELDS

    for rank, state in enumerate(driver.members[member].states):
        for name in STATE_FIELDS:
            np.copyto(getattr(state, name), arrays[f"{rank}.{name}"])
        for i, tracer in enumerate(state.tracers):
            np.copyto(tracer, arrays[f"{rank}.tracer{i}"])


def forecast_checks(model: Model, final: dict, steps: int) -> list:
    """Checks of each member forecast at its final state ``final[m]``.

    Every member gets the scenario's reference checks. The control also
    gets the scenario's mass- and tracer-conservation tolerances. On the
    perturbed members those two are left out: the Σδp·area leak in
    ``DGridSolver.transport_fields`` puts their drift at or past the
    tolerance, so whether they pass would depend on the seed.
    """
    driver, scen = model.driver, model.driver.scenario
    out = []
    for member in driver.member_ids:
        load_member(driver, member, final[member])
        mass = driver.mass_drift(member)  # also loads the member
        tracer = driver.tracer_drift(member)
        for check in scen.checks:
            violations = check(driver.engine, steps)
            out.append({"member": member, "check": check.__name__,
                        "kind": "reference", "ok": not violations,
                        "detail": "; ".join(violations)})
        if member != 0:
            continue
        if scen.mass_drift_tol is not None:
            out.append({"member": member, "check": "mass_drift",
                        "kind": "conservation",
                        "ok": abs(mass) <= scen.mass_drift_tol,
                        "detail": f"{mass:+.3e} (tol {scen.mass_drift_tol:.0e})"})
        if scen.tracer_drift_tol is not None and tracer is not None:
            out.append({"member": member, "check": "tracer_drift",
                        "kind": "conservation",
                        "ok": abs(tracer) <= scen.tracer_drift_tol,
                        "detail": f"{tracer:+.3e} "
                                  f"(tol {scen.tracer_drift_tol:.0e})"})
    return out


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def mode_fill(w: Workload, args) -> dict:
    """Untimed sequential run that fills the JIT disk cache."""
    from repro.run import EnsembleDriver
    from repro.runtime import jit

    before = jit.stats()
    t = now()
    steps = CROSSCHECK_STEPS if w.crosscheck == "sequential" else 1
    driver = EnsembleDriver(w.scenario, config_of(w), members=(0,),
                            seed=args.seed, executor="sequential")
    driver.step(steps)
    if w.crosscheck == "sequential":
        save_states(args.out, flatten_states(driver.members[0].states))
    driver.close()
    after = jit.stats()
    return {"fill_s": now() - t, "jit.engine": after["engine"],
            "jit.compiles": after["compiles"] - before["compiles"],
            "jit.compile_s": after["compile_seconds"]
            - before["compile_seconds"],
            "jit.disk_hits": after["disk_hits"] - before["disk_hits"]}


def mode_reference(w: Workload, args) -> dict:
    """numpy half of compiled == numpy: the perturbed member 1 over the
    first steps, compared with the compiled states the timed run saved."""
    from repro.run import EnsembleDriver

    driver = EnsembleDriver(w.scenario, config_of(w), members=(1,),
                            seed=args.seed, executor="sequential")
    driver.step(CROSSCHECK_STEPS)
    same = bit_identical(flatten_states(driver.members[1].states),
                         load_states(args.out))
    driver.close()
    return {"check": {"member": 1, "check": "compiled_eq_numpy",
                      "kind": "crosscheck", "ok": same,
                      "detail": f"first {CROSSCHECK_STEPS} steps"}}


def mode_setup(w: Workload, args, t_imported: float):
    """Build the model and take its first step; returns the model and the
    set-up split."""
    t0 = args.t0
    model = Model(w, args.seed)
    t_built = now()
    model.step()
    t_first = now()
    split = {"setup_s": t_first - t0,
             "setup.import_s": t_imported - t0,
             "setup.construct_s": t_built - t_imported,
             "setup.first_step_s": t_first - t_built}
    return model, split


def mode_timed(w: Workload, args, t_imported: float, tracker) -> dict:
    model, split = mode_setup(w, args, t_imported)
    if tracker is not None:
        tracker.after_setup(model)
    members = model.driver.member_ids
    n = w.forecast_steps
    k = CROSSCHECK_STEPS
    times = []
    early = {}
    final = {}
    step = 1
    while step < n or sum(times) < args.seconds:
        t = now()
        model.step()
        times.append(now() - t)
        step += 1
        # states for the checks, copied between timed steps
        if step == k and w.crosscheck != "numpy":
            early = {m: model.states_of(m) for m in members}
        if step == n:
            final = {m: model.states_of(m) for m in members}
    timed_s = sum(times)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = tracker.warm_metrics(model, times) if tracker else None
    if model.pex is not None:
        reports = model.pex.collect_reports()
        model.pex.close()
        worker_rss = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if tracker is not None:
            traced.update(tracker.worker_metrics(reports, len(times),
                                                 worker_rss))

    # ---- checks, all after timing -----------------------------------
    checks = forecast_checks(model, final, n)
    if w.crosscheck == "sequential":
        checks.append({"member": 0, "check": "processes_eq_sequential",
                       "kind": "crosscheck",
                       "ok": bit_identical(early[0], load_states(args.out)),
                       "detail": f"first {k} steps"})
    elif w.crosscheck == "numpy":
        # compiled half: the seeded member 1 through the warm engine
        model.driver.add_member(1)
        model.driver.step_selected((1,), k)
        save_states(args.out, model.states_of(1))
    elif w.crosscheck == "alone":
        from repro.run import EnsembleDriver

        # one fresh engine; each member is installed and stepped alone
        alone = EnsembleDriver(w.scenario, model.config, members=(0,),
                               seed=args.seed, executor="sequential")
        for m in members:
            if m not in alone.members:
                alone.add_member(m)
            alone.step_selected((m,), k)
            checks.append({"member": m, "check": "alone_eq_batch",
                           "kind": "crosscheck",
                           "ok": bit_identical(
                               flatten_states(alone.members[m].states),
                               early[m]),
                           "detail": f"first {k} steps"})
            alone.remove_member(m)
        alone.close()
    model.close()

    dt = model.config.dt_atmos
    out = {
        "split": split,
        "checks": checks,
        "timed_steps": len(times),
        "metrics": {
            "setup_s": split["setup_s"],
            "step_s.p50": statistics.median(times),
            "sypd": len(members) * len(times) * dt / timed_s / 365.0,
            "peak_rss_mb": peak_rss,
        },
    }
    if traced is not None:
        traced.update({name: (value, "s") for name, value in split.items()
                       if name != "setup_s"})
        out["traced"] = traced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode",
                        choices=("fill", "setup", "timed", "reference"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="npz file of cross-check states")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = now()
    w = WORKLOADS[args.workload]

    tracker = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        tracker = layers.Tracker(w)
        tracker.install()
    import repro.run  # noqa: F401  (the import share of set-up)

    t_imported = now()
    if args.mode == "fill":
        result = mode_fill(w, args)
    elif args.mode == "reference":
        result = mode_reference(w, args)
    elif args.mode == "setup":
        model, split = mode_setup(w, args, t_imported)
        model.close()
        result = {"split": split}
    else:
        result = mode_timed(w, args, t_imported, tracker)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
