"""Span tracer that wraps the public functions of the afd modules.

Spans are recorded from outside the package: every binding of a traced
function is replaced by a wrapper, in its home module and in every
other afd module (or the package itself) that imported it by name.
Patching only the home module would miss `from .core_afd import sift`
style imports and silently undercount.  Modules are looked up through
importlib, because `afd.cyclic_afd` as an attribute is the function of
that name, not the module.

A span is (name, start, end, parent index, op id, info).  Spans stay in
memory until the run ends; `info` is a per-target number taken from the
call (points evaluated, bytes on disk, cycles run) or None.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np

PACKAGE = "afd"


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["z"]))


def _file_bytes(position, keyword):
    def info(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        return os.path.getsize(path)

    return info


def _cycles(args, kwargs, result):
    return int(result.cycles)


# (module, qualified name, info callback).  maximal_selection's info is
# filled in by the tracer itself (did the polish beat the grid?).
TARGETS = (
    ("signal_core", "HardyFunction.__call__", _points),
    ("signal_core", "HardyFunction.boundary", None),
    ("signal_core", "to_hardy", None),
    ("signal_core", "analytic_signal", None),
    ("hardy_atoms", "szego_kernel", None),
    ("hardy_atoms", "mobius", None),
    ("hardy_atoms", "tm_system_boundary", None),
    ("core_afd", "maximal_selection", None),
    ("core_afd", "sift", None),
    ("core_afd", "coefficient", None),
    ("core_afd", "core_afd_decompose", None),
    ("cyclic_afd", "cyclic_afd", _cycles),
    ("cyclic_afd", "coordinate_optimize", None),
    ("cyclic_afd", "n_blaschke_objective", None),
    ("cyclic_afd", "cyclic_decomposition", None),
    ("poafd", "poafd_decompose", None),
    ("poafd", "poafd_select", None),
    ("poafd", "gram_schmidt", None),
    ("poafd", "kernel", None),
    ("unwinding", "factorize", None),
    ("unwinding", "uwa_decompose", None),
    ("unwinding", "uwafd_decompose", None),
    ("cli_io", "main", None),
    ("cli_io", "cmd_decompose", None),
    ("cli_io", "cmd_tfd", None),
    ("cli_io", "read_signal_csv", _file_bytes(0, "path")),
    ("cli_io", "save_result", _file_bytes(1, "path")),
    ("cli_io", "load_result", _file_bytes(0, "path")),
    ("tfd_uncertainty", "unwinding_tfd", None),
    ("tfd_uncertainty", "dirac_tfd", None),
)

CALL = "signal_core.HardyFunction.__call__"
SELECT = "core_afd.maximal_selection"


class Tracer:
    """Patches the TARGETS on install() and restores them on uninstall().

    While installed, the wrappers record spans only when `active` is set,
    so the benchmark's own checks between ops leave no spans.
    """

    def __init__(self):
        search = importlib.import_module(f"{PACKAGE}.config").DEFAULT_SEARCH
        # a HardyFunction call with at least a full grid of points is a scan
        self.scan_points = search.n_angles * search.n_radii
        self.spans = []
        self.active = False
        self.op = -1
        self._stack = []
        self._patches = []
        self._last_scan = None

    def install(self):
        # import every module before patching any, or a module imported
        # mid-install would bind a wrapper that uninstall never restores
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _q, _i in TARGETS}
        for module_name, qualname, info in TARGETS:
            owner = modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            name = f"{module_name}.{qualname}"
            wrapper = self._wrap(name, original, info)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_call = name == CALL
        is_select = name == SELECT

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            value = None if info is None else info(args, kwargs, result)
            if is_call and value >= self.scan_points:
                self._last_scan = args[1]
            elif is_select:
                # the grid winner is returned verbatim, the polish result never is
                value = int(not np.any(np.asarray(self._last_scan) == result))
            if value is not None:
                spans[index] = spans[index][:5] + (value,)
            return result

        return wrapper


def summarize(spans, scan_points, rounds):
    """Per-layer statistics, per round of the workload mix.

    Returns {metric name: (value, unit)}.  Self time is a span's
    duration minus that of its direct children.  Sifts per cycle count
    the sifts inside cyclic_afd, except those of its greedy warm start,
    over the cycles the traced cyclic_afd calls report.
    """
    stats = {}
    child_time = [0.0] * len(spans)
    children = [0] * len(spans)
    for name, start, end, parent, _op, _info in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1

    names = [f"{m}.{q}" for m, q, _ in TARGETS]
    acc = {n: [0, 0.0, 0.0] for n in names}
    split = {kind: [0, 0, 0.0] for kind in ("scan", "polish")}
    select_evals = 0
    polish_wins = 0
    file_bytes = {}
    cyclic_sifts = 0
    cycles = 0
    ancestors_cache = {}

    def ancestors(i):
        names_up = ancestors_cache.get(i)
        if names_up is None:
            parent = spans[i][3]
            names_up = () if parent < 0 else ancestors(parent) + (spans[parent][0],)
            ancestors_cache[i] = names_up
        return names_up

    for i, (name, start, end, parent, _op, info) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        a = acc[name]
        a[0] += 1
        a[1] += dur
        a[2] += own
        if name == CALL:
            s = split["scan" if info >= scan_points else "polish"]
            s[0] += 1
            s[1] += info
            s[2] += own
        elif name == SELECT:
            select_evals += children[i]
            polish_wins += info
        elif name.startswith("cli_io.") and info is not None:
            file_bytes[name] = file_bytes.get(name, 0) + info
        elif name == "cyclic_afd.cyclic_afd":
            cycles += info
        elif name == "core_afd.sift":
            up = ancestors(i)
            if "cyclic_afd.cyclic_afd" in up and "core_afd.core_afd_decompose" not in up:
                cyclic_sifts += 1

    for name in names:
        calls, dur, own = acc[name]
        if name == CALL:
            for kind, (k_calls, k_points, k_self) in split.items():
                stats[f"{name}.{kind}_calls"] = (k_calls / rounds, "count")
                stats[f"{name}.{kind}_points"] = (k_points / rounds, "count")
                stats[f"{name}.{kind}_self_s"] = (k_self / rounds, "s")
            continue
        stats[f"{name}.calls"] = (calls / rounds, "count")
        stats[f"{name}.s"] = (dur / rounds, "s")
        stats[f"{name}.self_s"] = (own / rounds, "s")
        if name == SELECT:
            stats[f"{name}.evals_per_call"] = (select_evals / calls if calls else 0.0, "count")
            stats[f"{name}.polish_win_frac"] = (polish_wins / calls if calls else 0.0, "frac")
        if name in ("cli_io.read_signal_csv", "cli_io.save_result", "cli_io.load_result"):
            stats[f"{name}.bytes"] = (file_bytes.get(name, 0) / rounds, "B")
    stats["cyclic_afd.sifts_per_cycle"] = (cyclic_sifts / cycles if cycles else 0.0, "count")
    return stats


def top_level_time(spans):
    """Summed duration of spans that have no traced parent."""
    return sum(end - start for _n, start, end, parent, _o, _i in spans if parent < 0)


def per_op_counts(spans):
    """{op id: {span name: calls}}, used to show that rounds repeat exactly."""
    out = {}
    for name, _s, _e, _p, op, _i in spans:
        ops = out.setdefault(op, {})
        ops[name] = ops.get(name, 0) + 1
    return out
