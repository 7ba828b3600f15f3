"""Run one lgsqe CLI command in-process with a span around every layer call.

    python3 perfbench/tracer.py SPANS.json <lgsqe argv...>

The public functions of each layer are wrapped where their callers look them
up (``lgsqe.pipeline.build_representation`` as well as
``lgsqe.saab.build_representation``), ``lgsqe.cli.main`` runs the argv, the
originals are restored, and the spans are written to SPANS.json. Nothing
inside ``src/`` changes. A function that no longer exists is listed under
``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# Span name ("<module>.<function>") -> (module, attribute path). Methods are
# reported under their module, so PipelineModel.load is "pipeline.load".
TRACED = {
    "cli.main": ("cli", "main"),
    "datasets.load_images": ("datasets", "load_images"),
    "datasets.make_labeled_split": ("datasets", "make_labeled_split"),
    "datasets.save_raw_tensor": ("datasets", "save_raw_tensor"),
    "saab.extract_patches": ("saab", "extract_patches"),
    "saab.fit_saab": ("saab", "fit_saab"),
    "saab.apply_saab": ("saab", "apply_saab"),
    "saab.abs_max_pool": ("saab", "abs_max_pool"),
    "saab.fit_cw_saab": ("saab", "fit_cw_saab"),
    "saab.apply_cw_saab": ("saab", "apply_cw_saab"),
    "saab.fit_representation": ("saab", "fit_representation"),
    "saab.build_representation": ("saab", "build_representation"),
    "dft.rank_features": ("dft", "rank_features"),
    "dft.select_features": ("dft", "select_features"),
    "gbdt.fit_ensemble": ("gbdt", "fit_ensemble"),
    "gbdt.predict_score": ("gbdt", "BoostedEnsemble.predict_score"),
    "evaluate.aggregate_report": ("evaluate", "aggregate_report"),
    "evaluate.filter_samples": ("evaluate", "filter_samples"),
    "evaluate.write_scores_csv": ("evaluate", "write_scores_csv"),
    "pipeline.fit_pipeline": ("pipeline", "fit_pipeline"),
    "pipeline.load": ("pipeline", "PipelineModel.load"),
    "pipeline.save": ("pipeline", "PipelineModel.save"),
    "pipeline.score_images": ("pipeline", "PipelineModel.score_images"),
}


# Counters read from a call's positional arguments and result: span name ->
# function returning {counter: value}. Counters in SUMMED add up over the calls of one
# command; the others keep the last value.
COUNTERS = {
    "saab.extract_patches": lambda args, out: {
        "patch_rows": out.data.shape[0],
        "patch_mb": out.data.shape[0] * out.data.shape[1] * 8 / 1e6,
    },
    "saab.fit_representation": lambda args, out: {"k1": out.num_channels},
    "saab.build_representation": lambda args, out: {"width": out.width},
    "dft.rank_features": lambda args, out: {"columns": out.dimension},
    "dft.select_features": lambda args, out: {"selected": out.indices.size},
    "gbdt.fit_ensemble": lambda args, out: {
        "trees": len(out.trees),
        "nodes_per_tree": sum(t.feature.size for t in out.trees) / max(1, len(out.trees)),
    },
    "evaluate.aggregate_report": lambda args, out: {"distinct_scores": int(np.unique(args[0]).size)},
    "pipeline.load": lambda args, out: {"model_mb": os.path.getsize(args[1]) / 1e6},  # args[0] is the class
    "pipeline.save": lambda args, out: {"model_mb": os.path.getsize(args[1]) / 1e6},
    "pipeline.score_images": lambda args, out: {"selected": args[0].selection.indices.size},
}
SUMMED = {"patch_rows", "patch_mb"}


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self._count(name, counter, args, result)
            return result

        return traced

    def _count(self, name, counter, args, result):
        try:
            values = counter(args, result)
        except (AttributeError, TypeError, IndexError, OSError):
            # The function's signature or result changed: report, don't crash.
            if f"{name}.counters" not in self.missing:
                self.missing.append(f"{name}.counters")
            return
        for key, value in values.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value if key in SUMMED else value

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block, then restore."""
        importlib.import_module("lgsqe.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lgsqe" or n.startswith("lgsqe.")]
        restore = []
        try:
            for name, (module_name, attr) in TRACED.items():
                module = sys.modules.get(f"lgsqe.{module_name}")
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name and module else module
                raw = vars(owner).get(fn_name) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                    restore.append((owner, fn_name, raw))
                    setattr(owner, fn_name, wrapped)
                    continue
                wrapped = self.wrap(name, raw)
                for target in modules if not owner_name else [owner]:
                    if vars(target).get(fn_name) is raw:
                        restore.append((target, fn_name, raw))
                        setattr(target, fn_name, wrapped)
            yield self
        finally:
            for target, fn_name, raw in reversed(restore):
                setattr(target, fn_name, raw)


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, call count).

    Self time is a span's duration minus the part of it that its child spans
    cover (the union of the children's intervals).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, [])):
            lo = max(child_start, reach)
            if child_end > lo:
                covered += child_end - lo
                reach = child_end
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered, calls + 1)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <lgsqe argv...>", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed():
        status = importlib.import_module("lgsqe.cli").main(command)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
