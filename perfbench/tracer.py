"""In-memory span tracer that wraps the public functions of qstkit modules.

The tracer patches module attributes from outside the package, so the
library itself carries no timing code. Each call into a wrapped function
records one span ``(name, start, end, parent)`` in a list kept in memory;
``summary()`` turns the spans into per-name call counts, total time and self
time (a span's duration minus the durations of its direct children).

Every binding site is patched: besides ``module.func`` the tracer replaces
any other module attribute that refers to the same function object, such as
``cli.fidelity`` imported by name from ``qcore``. Functions and classes that
a later version of the package no longer has are skipped, so their metrics
are simply absent.
"""

from __future__ import annotations

import inspect
import math
import os
from collections import defaultdict
from time import perf_counter

# Module attributes that are wrapped besides plain public functions.
LAYER_CLASSES = ("Conv2D", "MaxPool2D", "Dense")
METHODS = {
    "neuralnet": {
        "Network": ("forward", "backward"),
        "Adagrad": ("step",),
        **{cls: ("forward", "backward") for cls in LAYER_CLASSES},
    },
}
# Functions whose first argument is a stack of rows to be counted.
ROW_COUNTED = {"analytics.fidelity_stack"}
# Functions whose first argument is a path to a file they read or write.
IO_FUNCTIONS = {
    "tomography.read_dataset", "tomography.write_dataset",
    "neuralnet.save_checkpoint", "neuralnet.load_checkpoint",
    "cli.write_states", "cli.read_states",
}


def layer_roles(layers) -> dict[int, tuple[str, int]]:
    """Role and position of each Conv2D / MaxPool2D / Dense layer in the list.

    The first Conv2D is ``conv1``, the second ``conv2``; every MaxPool2D is
    ``pool`` and every Dense layer counts towards ``dense``.
    """
    roles, convs = {}, 0
    for pos, layer in enumerate(layers):
        kind = type(layer).__name__
        if kind == "Conv2D":
            convs += 1
            roles[id(layer)] = (f"conv{convs}", pos)
        elif kind == "MaxPool2D":
            roles[id(layer)] = ("pool", pos)
        elif kind == "Dense":
            roles[id(layer)] = ("dense", pos)
    return roles


class Tracer:
    """Install with ``install(package)``; always ``uninstall()`` afterwards."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.shapes: dict[tuple[str, int], tuple] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._roles: dict[int, tuple[int, str, int]] = {}
        self._nets: dict[int, object] = {}  # keeps each seen network (and its id) alive
        self._current_m = 0

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack, spans = self._stack, self.spans
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _plain(self, name, fn):
        call = self._call
        if name in ROW_COUNTED:
            counters = self.counters

            def row_wrapper(*args, **kwargs):
                counters[name + ".rows"] += len(args[0])
                return call(name, fn, args, kwargs)
            return row_wrapper
        if name in IO_FUNCTIONS:
            counters = self.counters

            def io_wrapper(*args, **kwargs):
                try:
                    return call(name, fn, args, kwargs)
                finally:
                    counters[name.split(".")[0] + ".io_bytes"] += _file_size(args[0])
            return io_wrapper

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)
        return wrapper

    def _network_method(self, method_name, fn):
        """Network.forward/backward: count rows and map layers to roles."""
        name = f"neuralnet.Network.{method_name}"

        def wrapper(net, *args, **kwargs):
            m = net.config.num_qubits
            self._current_m = m
            if id(net) not in self._nets:
                self._nets[id(net)] = net
                for key, (role, pos) in layer_roles(net.layers).items():
                    self._roles[key] = (m, role, pos)
            if method_name == "forward":
                self.counters["neuralnet.forward.calls"] += 1
                self.counters["neuralnet.forward.rows"] += args[0].shape[0]
            else:
                self.counters[f"neuralnet.m{m}.batches"] += 1
            return self._call(name, fn, (net, *args), kwargs)
        return wrapper

    def _layer_method(self, cls_name, method_name, fn):
        """Layer spans are named by network size, role and phase."""
        generic = f"neuralnet.{cls_name}.{method_name}"

        def wrapper(layer, x, *args, **kwargs):
            role = self._roles.get(id(layer))
            if role is None:
                name = generic
            else:
                if method_name == "backward":
                    phase = "bwd"
                elif kwargs.get("train", args[0] if args else False):
                    phase = "fwd"
                else:
                    phase = "infer"
                name = f"neuralnet.m{role[0]}.{role[1]}.{phase}"
            out = self._call(name, fn, (layer, x, *args), kwargs)
            if role is not None and (name, role[2]) not in self.shapes:
                weight = getattr(layer, "w", None)
                self.shapes[(name, role[2])] = (
                    x.shape, out.shape, None if weight is None else weight.shape)
            return out
        return wrapper

    def _adagrad_step(self, fn):
        def wrapper(*args, **kwargs):
            return self._call(f"neuralnet.m{self._current_m}.adagrad", fn, args, kwargs)
        return wrapper

    def _validate(self, fn):
        def wrapper(net, *args, **kwargs):
            name = f"neuralnet.m{net.config.num_qubits}.validate"
            return self._call(name, fn, (net, *args), kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions (and the listed methods) of every submodule."""
        modules = {
            short: getattr(package, short)
            for short in ("qcore", "sampling", "tomography", "cholesky",
                          "neuralnet", "adapt", "analytics", "cli")
            if hasattr(package, short)
        }
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr[4:] if attr.startswith('cmd_') else attr}"
                if short == "neuralnet" and attr == "mean_reconstruction_fidelity":
                    wrappers[value] = self._validate(value)
                else:
                    wrappers[value] = self._plain(name, value)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name, None)
                for method_name in methods:
                    fn = vars(cls).get(method_name) if cls is not None else None
                    if fn is None:
                        continue
                    if cls_name == "Network":
                        wrapped = self._network_method(method_name, fn)
                    elif cls_name == "Adagrad":
                        wrapped = self._adagrad_step(fn)
                    else:
                        wrapped = self._layer_method(cls_name, method_name, fn)
                    self._patch(cls, method_name, wrapped)
        # Patch every module attribute bound to a wrapped function, which
        # covers names imported from one module into another.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_ms`` and ``self_ms``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - children) * 1e3
        return out


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


MODULES = ("qcore", "sampling", "tomography", "cholesky", "neuralnet", "adapt", "analytics", "cli")
ROLES = ("conv1", "pool", "conv2", "dense")
# Per-call metrics the benchmark reports when the traced code made such calls.
FUNCTION_METRICS = {
    "adapt.reconstruct_adaptive": ("calls", "self_ms"),
    "adapt.pad_measurements": ("self_ms",),
    "adapt.subsystem_experiment": ("self_ms",),
    "adapt.padding_experiment": ("self_ms",),
    "qcore.fidelity": ("calls", "self_ms"),
    "qcore.partial_trace": ("calls", "self_ms"),
    "qcore.assert_physical": ("calls", "self_ms"),
    "qcore.sqrt_psd": ("self_ms",),
    "cholesky.tau_to_rho": ("calls", "self_ms"),
    "cholesky.rho_to_tau": ("calls", "self_ms"),
    "tomography.measure": ("calls", "self_ms"),
    "sampling.stream": ("calls", "self_ms"),
    "sampling.sample_state": ("calls", "self_ms"),
    "sampling.sample_ensemble": ("self_ms",),
    "analytics.fidelity_stack": ("calls", "self_ms"),
    "cli.generate": ("self_ms",),
    "cli.train": ("self_ms",),
    "cli.reconstruct": ("self_ms",),
    "cli.experiment": ("self_ms",),
}


def kernel_counts(role: str, shapes: list[tuple]) -> dict[str, float]:
    """Computed flops and bytes moved by one training batch of one layer role.

    ``shapes`` holds ``(input, output, weight)`` shapes of the role's layers
    as seen in a training forward pass. Arrays are float64 (8 bytes); every
    operand is counted as read or written once, so cache effects are
    ignored. Bias additions count one flop per output element.
    """
    fwd_flops = bwd_flops = fwd_elems = bwd_elems = 0
    for x, out, w in shapes:
        x_size, out_size = math.prod(x), math.prod(out)
        if role == "pool":
            window = (x[2] // out[2]) * (x[3] // out[3])
            fwd_flops += out_size * (window - 1)  # comparisons
            fwd_elems += x_size + 2 * out_size  # input, output, argmax
            bwd_elems += 2 * out_size + x_size  # dout, argmax, dx
            continue
        w_size = math.prod(w)
        macs = out_size * w_size // w[0] if role != "dense" else x[0] * w_size
        fwd_flops += 2 * macs + out_size
        bwd_flops += 4 * macs + out_size  # weight and input gradients, bias sum
        fwd_elems += x_size + w_size + w[0 if role != "dense" else 1] + out_size
        bwd_elems += out_size + 2 * x_size + 2 * w_size  # dout, x, dx, w, dw
    return {"fwd_flops_computed": fwd_flops, "bwd_flops_computed": bwd_flops,
            "fwd_bytes_computed": 8 * fwd_elems, "bwd_bytes_computed": 8 * bwd_elems}


def layer_metrics(summary: dict, tracer: Tracer, passes: int) -> dict[str, dict]:
    """Per-layer metrics of the traced passes, averaged per pass.

    Network layer times are per training batch and validation per epoch. A
    metric whose span never occurred is absent.
    """
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def total(name):
        return summary[name]["total_ms"] if name in summary else 0.0

    for module in MODULES:
        entries = [v for k, v in summary.items() if k.split(".")[0] == module]
        put(f"{module}.calls", sum(e["calls"] for e in entries) / passes, "count")
        put(f"{module}.self_ms", sum(e["self_ms"] for e in entries) / passes, "ms")

    for m in (2, 3):
        batches = tracer.counters.get(f"neuralnet.m{m}.batches", 0)
        if batches:
            for role in ROLES:
                for phase in ("fwd", "bwd"):
                    span = f"neuralnet.m{m}.{role}.{phase}"
                    if span in summary:
                        put(f"{span}_ms", total(span) / batches, "ms")
                shapes = [s for (span, _), s in sorted(tracer.shapes.items())
                          if span == f"neuralnet.m{m}.{role}.fwd"]
                if shapes:
                    for key, value in kernel_counts(role, shapes).items():
                        put(f"neuralnet.m{m}.{role}.{key}", value,
                            "flop" if "flops" in key else "byte")
            if f"neuralnet.m{m}.adagrad" in summary:
                put(f"neuralnet.m{m}.adagrad_ms", total(f"neuralnet.m{m}.adagrad") / batches, "ms")
        validate = summary.get(f"neuralnet.m{m}.validate")
        if validate:
            put(f"neuralnet.m{m}.validate_ms", validate["total_ms"] / validate["calls"], "ms")

    calls = tracer.counters.get("neuralnet.forward.calls", 0)
    if calls:
        rows = tracer.counters["neuralnet.forward.rows"]
        put("neuralnet.forward.calls", calls / passes, "count")
        put("neuralnet.forward.rows", rows / passes, "count")
        put("neuralnet.rows_per_forward", rows / calls, "count")
    if "neuralnet.load_checkpoint" in summary:
        put("neuralnet.checkpoint_load_ms", total("neuralnet.load_checkpoint") / passes, "ms")

    for name, kinds in FUNCTION_METRICS.items():
        if name in summary:
            for kind in kinds:
                put(f"{name}.{kind}", summary[name][kind] / passes,
                    "count" if kind == "calls" else "ms")
    if "analytics.fidelity_stack.rows" in tracer.counters:
        put("analytics.fidelity_stack.rows",
            tracer.counters["analytics.fidelity_stack.rows"] / passes, "count")
    mc = [summary[k]["self_ms"] for k in ("analytics.mc_avg_fidelity",
                                          "analytics.mc_avg_fidelity_vs_mixed") if k in summary]
    if mc:
        put("analytics.mc.self_ms", sum(mc) / passes, "ms")
    io = [k for k in ("tomography.read_dataset", "tomography.write_dataset") if k in summary]
    if io:
        put("tomography.io_ms", sum(total(k) for k in io) / passes, "ms")
        put("tomography.io_bytes", tracer.counters.get("tomography.io_bytes", 0) / passes, "byte")
    return out
