"""The layers the traced run wraps, and the per-layer metrics built from spans.

A layer is a span name plus the public functions that open it.  Metric
names are ``<span>.<stat>``; ``_mats`` is reported as ``mats`` because
metric names must start with a letter.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from spans import Span, Tracer, find_wrapped, install, make_wrapper

MB = float(1 << 20)
DENSE_CUTOFF = 512  # _mats.operator_norm switches to power iteration above this


def _embed_stats(args, kwargs, result) -> dict:
    return {"out_mb": result.matrix.nbytes / MB}


def _operator_norm_stats(args, kwargs, result) -> dict:
    n = args[0].shape[0]
    if n > DENSE_CUTOFF:
        return {"iterative_calls": 1}
    # singular values of a complex n x n matrix: bidiagonalisation costs
    # about 8/3 n^3 real flops, times 4 for complex arithmetic
    return {"dense_gflop": 32.0 / 3.0 * n**3 / 1e9}


def _gamma_stack_stats(args, kwargs, result) -> dict:
    f, model = args[0], args[1]
    side = model.dim * f.m
    return {"stack_mb": len(f.coeffs) * side * side * 16 / MB}


@dataclass(frozen=True)
class Layer:
    span: str
    module: str  # the module that defines the functions
    functions: tuple[str, ...]  # "name" or "Class.method"
    stats: tuple[str, ...]
    meter: Optional[Callable] = None


RUN_FUNCTIONS = ("run_intertwining", "run_rate", "run_isometry_defect",
                 "run_smoothing_tail", "run_psd_audit", "run_covering_net",
                 "run_bridge_reach", "run_hp_ratio")

LAYERS: tuple[Layer, ...] = (
    Layer("matrixmodel.embed", "fuzzytorus.matrixmodel", ("embed",),
          ("calls", "self_s", "out_mb"), _embed_stats),
    Layer("matrixmodel.fourier_coefficients", "fuzzytorus.matrixmodel",
          ("fourier_coefficients",), ("calls", "self_s")),
    Layer("matrixmodel.model_build", "fuzzytorus.matrixmodel",
          ("clock_shift", "fuzzy_generators"), ("calls", "self_s")),
    Layer("matrixmodel.schatten_norm", "fuzzytorus.matrixmodel",
          ("schatten_norm",), ("self_s",)),
    Layer("mats.operator_norm", "fuzzytorus._mats", ("operator_norm",),
          ("calls", "self_s", "iterative_calls", "dense_gflop"),
          _operator_norm_stats),
    Layer("mats.hermitian_max_eig", "fuzzytorus._mats", ("hermitian_max_eig",),
          ("calls", "self_s")),
    Layer("lipnorm.lip_seminorm_on_model", "fuzzytorus.lipnorm",
          ("lip_seminorm_on_model",), ("calls", "self_s", "stack_mb"),
          _gamma_stack_stats),
    Layer("lipnorm.lip_seminorm", "fuzzytorus.lipnorm", ("lip_seminorm",),
          ("self_s",)),
    Layer("lipnorm.lip_ball_sample", "fuzzytorus.lipnorm", ("lip_ball_sample",),
          ("self_s",)),
    Layer("experiments.SymbolGrid", "fuzzytorus.experiments",
          ("SymbolGrid.__init__",), ("build_s",)),
    Layer("experiments.SymbolGrid.norm", "fuzzytorus.experiments",
          ("SymbolGrid.norm",), ("calls", "self_s")),
    Layer("experiments.SymbolGrid.lip_column", "fuzzytorus.experiments",
          ("SymbolGrid.lip_column",), ("calls", "self_s")),
    *(Layer(f"experiments.{fn}", "fuzzytorus.experiments", (fn,), ("self_s",))
      for fn in RUN_FUNCTIONS),
    *(Layer(f"ncpoly.{fn}", "fuzzytorus.ncpoly", (fn,), ("self_s",))
      for fn in ("apply_multiplier", "gradient_form", "adjoint")),
    *(Layer(f"lattice.{fn}", "fuzzytorus.lattice", (fn,), ("self_s",))
      for fn in ("cocycle_rows_for_coords", "check_conditionally_negative",
                 "build_smoothing_multiplier")),
    Layer("manifest.parse_config", "fuzzytorus.manifest", ("parse_config",),
          ("self_s",)),
    Layer("manifest.emit_report", "fuzzytorus.manifest", ("emit_report",),
          ("self_s",)),
)

# Computed by the benchmark from its traced and untraced runs.
TRACE_METRICS = (("trace.overhead_frac", "frac"), ("trace.glue_s", "s"))

UNITS = {"calls": "count", "iterative_calls": "count", "self_s": "s",
         "build_s": "s", "out_mb": "MB", "stack_mb": "MB",
         "dense_gflop": "GFLOP"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{layer.span}.{stat}": UNITS[stat]
           for layer in LAYERS for stat in layer.stats}
    out.update(TRACE_METRICS)
    return out


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "fuzzytorus" or name.startswith("fuzzytorus.")]


def program_classes() -> list:
    """Classes that own a wrapped method."""
    names = {(layer.module, f.split(".")[0]) for layer in LAYERS
             for f in layer.functions if "." in f}
    return [vars(importlib.import_module(m))[cls] for m, cls in sorted(names)]


def _resolve(layer: Layer, function: str) -> Callable:
    obj = importlib.import_module(layer.module)
    for part in function.split("."):
        obj = vars(obj)[part]
    return obj


def install_layers(tracer: Tracer) -> list:
    """Wrap every layer function in every program module; returns the
    replaced bindings for spans.restore."""
    wrappers = {}
    for layer in LAYERS:
        for function in layer.functions:
            fn = _resolve(layer, function)
            wrappers[id(fn)] = (fn, make_wrapper(fn, layer.span, tracer, layer.meter))
    return install(wrappers, program_modules(), program_classes())


def wrapped_names() -> list[str]:
    return find_wrapped(program_modules(), program_classes())


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """calls, self times and metered stats per layer, from one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for layer in LAYERS:
        group = by_name.get(layer.span, [])
        for stat in layer.stats:
            if stat == "calls":
                value = len(group)
            elif stat in ("self_s", "build_s"):
                value = sum(s.self_s for s in group)
            elif stat == "stack_mb":  # the largest single stack, which sets peak memory
                value = max((s.stats.get(stat, 0.0) for s in group), default=0.0)
            else:
                value = sum(s.stats.get(stat, 0) for s in group)
            out[f"{layer.span}.{stat}"] = value
    return out
