"""Per-layer timing for the traced run (``--trace 1``).

The model is not edited: :meth:`Tracker.install` wraps public methods
of each layer's classes from outside, before the model is built, and
times every call. A call made while another wrapped layer call is open
is left to the outer one, so no interval is counted twice. Inside rank
worker processes the wrappers cannot report back; there the split comes
from the program's own ``repro.obs`` span trees, which workers record
when the parent's tracer is enabled.

All per-step metrics cover the warm steps only: :meth:`after_setup`
closes the set-up phase after the first step and zeroes the step
accumulators.
"""

from __future__ import annotations

import collections
import importlib
import statistics

from model import now

#: layer -> wrapped (module, class, method) entry points
LAYERS = {
    "acoustics.c_sw": [("repro.fv3.stencils.c_sw", "CGridSolver",
                        "__call__")],
    "acoustics.riemann": [("repro.fv3.stencils.riem_solver_c",
                           "RiemannSolverC", "__call__")],
    "acoustics.d_sw.transport": [("repro.fv3.stencils.d_sw", "DGridSolver",
                                  "transport_fields")],
    "acoustics.d_sw.momentum": [("repro.fv3.stencils.d_sw", "DGridSolver",
                                 "momentum")],
    "acoustics.d_sw.damp": [("repro.fv3.stencils.d_sw", "DGridSolver",
                             "damp_fields")],
    "tracer.advect": [("repro.fv3.stencils.tracer2d", "TracerAdvection", m)
                      for m in ("prepare", "__call__")],
    "remap": [("repro.fv3.stencils.remapping", "LagrangianToEulerian", m)
              for m in ("compute_levels", "remap_field", "finalize")],
    "halo.exchange": [("repro.fv3.halo", "HaloUpdater", m)
                      for m in ("update_scalar", "update_vector",
                                "start_scalar", "start_scalars",
                                "start_vector", "advance", "finish_scalar",
                                "finish_vector")],
}

#: layers whose SDFG the perf model can size (orchestrated programs)
STENCIL_LAYERS = [name for name in LAYERS if name != "halo.exchange"]

#: container calls: their self time is what the layers above leave over
CONTAINERS = {
    "dyncore.step": ("repro.fv3.dyncore", "DynamicalCore", "step_dynamics"),
    "ensemble.step": ("repro.run.driver", "EnsembleDriver", "step"),
}

#: set-up and process-executor calls, timed whether or not nested
OTHER = {
    "orchestration.build": ("repro.orchestration.program",
                            "OrchestratedProgram", "build"),
    "orchestration.compile": ("repro.orchestration.program",
                              "OrchestratedProgram", "compile"),
    "procs.launch": ("repro.runtime.procs", "ProcessRankExecutor", "launch"),
    "procs.step": ("repro.runtime.procs", "ProcessRankExecutor", "step"),
    "procs.collect": ("repro.runtime.procs", "ProcessRankExecutor",
                      "collect"),
}


def computed_bytes(program) -> int:
    """Bytes one call of an orchestrated program moves under the perf
    model: each accessed element once per kernel, times the number of
    times the kernel's state runs (``repro.core.perfmodel``'s count)."""
    from repro.sdfg.nodes import Kernel

    sdfg = program.sdfg
    if sdfg is None:
        return 0
    runs = sdfg.kernel_invocations()
    return sum(
        runs[i] * node.moved_bytes(sdfg)
        for i, state in enumerate(sdfg.states)
        for node in state.nodes
        if isinstance(node, Kernel)
    )


def _outermost(spans, match) -> float:
    """Seconds of the outermost spans whose name satisfies ``match``."""
    total = 0.0
    for span in spans:
        if match(span["name"]):
            total += span["total_seconds"]
        else:
            total += _outermost(span["children"], match)
    return total


class Tracker:
    def __init__(self, workload):
        self.w = workload
        self.seconds = collections.defaultdict(float)
        self.calls = collections.defaultdict(int)
        #: (layer, id(obj), method) -> [obj, calls] for the byte model
        self.sites = {}
        self.depth = 0
        self.setup = {}

    # -- wrapping -------------------------------------------------------
    def _wrap(self, key, target, layer: bool) -> None:
        module, cls_name, meth = target
        cls = getattr(importlib.import_module(module), cls_name)
        orig = cls.__dict__[meth]
        tracker = self

        def wrapper(obj, *args, **kwargs):
            call = orig.__get__(obj, type(obj))
            if layer and tracker.depth:
                return call(*args, **kwargs)
            tracker.depth += layer
            t = now()
            try:
                return call(*args, **kwargs)
            finally:
                tracker.seconds[key] += now() - t
                tracker.calls[key] += 1
                tracker.depth -= layer
                if layer:
                    site = tracker.sites.setdefault((key, id(obj), meth),
                                                    [obj, 0])
                    site[1] += 1

        wrapper.__name__ = meth
        setattr(cls, meth, wrapper)

    def install(self) -> None:
        from repro.runtime import jit

        if not self.w.workers:
            for key, targets in LAYERS.items():
                for target in targets:
                    self._wrap(key, target, layer=True)
            for key, target in CONTAINERS.items():
                self._wrap(key, target, layer=False)
        for key, target in OTHER.items():
            self._wrap(key, target, layer=False)
        self.jit0 = jit.stats()

    # -- phases ---------------------------------------------------------
    def _counters(self, model) -> dict:
        from repro.runtime import compile_cache
        from repro.runtime.pool import get_pool

        sizes = model.driver.engine.halo.comm.message_sizes()
        return {"messages": len(sizes), "bytes": sum(sizes),
                "allocs": get_pool().stats()["allocations"],
                "misses": compile_cache.stats()["misses"]}

    def after_setup(self, model) -> None:
        from repro.runtime import jit

        jit1 = jit.stats()
        self.setup = {
            "orchestration.build_s": self.seconds["orchestration.build"],
            "orchestration.compile_s": self.seconds["orchestration.compile"],
            "procs.launch_s": self.seconds["procs.launch"],
            "jit.disk_hits": jit1["disk_hits"] - self.jit0["disk_hits"],
            "jit.compiles": jit1["compiles"] - self.jit0["compiles"],
        }
        self.seconds.clear()
        self.calls.clear()
        self.sites.clear()
        self.counters0 = self._counters(model)

    def warm_metrics(self, model, times) -> dict:
        """Per-warm-step layer metrics as ``name -> (value, unit)``."""
        n = len(times)
        sec = self.seconds
        c0, c1 = self.counters0, self._counters(model)
        out = {}
        layer_total = 0.0
        for layer in LAYERS:
            per_step = sec[layer] / n
            layer_total += per_step
            out[f"{layer}_s"] = (per_step, "s")
        for layer in STENCIL_LAYERS:
            nbytes = sum(
                calls * computed_bytes(obj.__dict__[f"_orchestrated_{meth}"])
                for (key, _, meth), (obj, calls) in self.sites.items()
                if key == layer
            ) / n
            out[f"{layer}.computed_bytes"] = (nbytes, "B")
            out[f"{layer}.computed_gbs"] = (
                nbytes / (sec[layer] / n) / 1e9 if sec[layer] else 0.0,
                "GB/s",
            )
        out["halo.messages"] = ((c1["messages"] - c0["messages"]) / n,
                                "count")
        out["halo.bytes"] = ((c1["bytes"] - c0["bytes"]) / n, "B")
        out["pool.fresh_allocs"] = ((c1["allocs"] - c0["allocs"]) / n,
                                    "count")
        out["compile_cache.misses"] = ((c1["misses"] - c0["misses"]) / n,
                                       "count")
        dyncore = sec["dyncore.step"] / n
        ensemble = sec["ensemble.step"] / n
        out["dyncore.self_s"] = (dyncore - layer_total if dyncore else 0.0,
                                 "s")
        out["ensemble.self_s"] = (ensemble - dyncore if ensemble else 0.0,
                                  "s")
        # the process workload has no wrapped engine step in the parent
        out["step_s.traced_mean"] = (ensemble or statistics.fmean(times),
                                     "s")
        out["step_s.traced_p50"] = (statistics.median(times), "s")
        out["procs.step_s"] = (sec["procs.step"] / n, "s")
        out["procs.collect_s"] = (
            sec["procs.collect"] / max(self.calls["procs.collect"], 1), "s"
        )
        out["worker.halo.exchange_s"] = (0.0, "s")
        out["worker.compute_s"] = (0.0, "s")
        out["procs.worker_rss_mb"] = (0.0, "MiB")
        for name, value in self.setup.items():
            out[name] = (value, "s" if name.endswith("_s") else "count")
        return out

    def worker_metrics(self, reports, timed_steps: int, worker_rss) -> dict:
        """The process workload's split inside the rank workers, from the
        span trees and counters each worker reports. Halo and compute are
        seconds per rank and step, over every step of the run with the
        orchestration of the first step left out; orchestration is summed
        over all rank threads, like the sequential workloads' total."""
        steps = timed_steps + 1
        n_ranks = sum(len(report["owned"]) for report in reports)
        halo = ranks = build = compile_ = 0.0
        disk_hits = compiles = messages = nbytes = 0
        for report in reports:
            spans = (report.get("spans") or {}).get("spans") or []
            halo += _outermost(spans, lambda n: n.startswith("halo."))
            ranks += _outermost(spans, lambda n: n.startswith("rank["))
            build += _outermost(spans, lambda n: n == "orchestrate.build")
            compile_ += _outermost(spans,
                                   lambda n: n == "orchestrate.compile")
            disk_hits += report["jit"]["disk_hits"]
            compiles += report["jit"]["compiles"]
            messages += report["comm"]["messages"]
            nbytes += report["comm"]["bytes"]
        orchestration = build + compile_
        return {
            "worker.halo.exchange_s": (halo / steps / n_ranks, "s"),
            "halo.messages": (messages / steps, "count"),
            "halo.bytes": (nbytes / steps, "B"),
            "worker.compute_s": (
                (ranks - halo - orchestration) / steps / n_ranks, "s"),
            "procs.worker_rss_mb": (worker_rss, "MiB"),
            "orchestration.build_s": (
                self.setup["orchestration.build_s"] + build, "s"),
            "orchestration.compile_s": (
                self.setup["orchestration.compile_s"] + compile_, "s"),
            "jit.disk_hits": (self.setup["jit.disk_hits"] + disk_hits,
                              "count"),
            "jit.compiles": (self.setup["jit.compiles"] + compiles, "count"),
        }
