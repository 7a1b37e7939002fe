"""The layer ledger: which ``src/repro`` module belongs to which layer.

Every module of the package maps to exactly one layer.  A pattern names
one module, or with a trailing ``.*`` a package and every module below
it.  The most specific match wins (a module name over a package, a
deeper package over a shallower one), so ``repro.despy.stats`` can sit
in ``report`` while the rest of ``repro.despy`` is the kernel.
``test_layers.py`` fails when a module matches no pattern, or when its
most specific matches name two layers.

The module also turns two host-side measurements into per-layer
numbers: a ``cProfile`` run (self time and call counts per layer) and
the ``-X importtime`` log of a fresh interpreter (start-up split).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

LAYER_PATTERNS: Dict[str, Tuple[str, ...]] = {
    "startup": ("repro", "repro.__main__"),
    "ocb": ("repro.ocb.*",),
    "clustering": ("repro.clustering.*", "repro.core.clustering_manager"),
    "despy.kernel": ("repro.despy.*",),
    "core": ("repro.core.*", "repro.systems.*"),
    "core.cluster": ("repro.core.cluster", "repro.core.failures"),
    "report": (
        "repro.despy.stats",
        "repro.despy.validation",
        "repro.experiments.*",
        "repro.scenarios.*",
    ),
}

#: Layers whose code runs while the simulation is profiled.
PROFILED_LAYERS = ("ocb", "clustering", "despy.kernel", "core", "core.cluster", "report")


def _covers(package: str, module: str) -> bool:
    return module == package or module.startswith(package + ".")


def _specificity(pattern: str, module: str) -> Optional[Tuple[int, int]]:
    """How closely ``pattern`` fits ``module``; ``None`` when it does not."""
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return (0, package.count(".")) if _covers(package, module) else None
    return (1, 0) if pattern == module else None


def layer_matches(module: str) -> List[Tuple[str, str]]:
    """The ``(layer, pattern)`` pairs that fit ``module`` most specifically."""
    matches = [
        (_specificity(pattern, module), layer, pattern)
        for layer, patterns in LAYER_PATTERNS.items()
        for pattern in patterns
    ]
    matches = [m for m in matches if m[0] is not None]
    if not matches:
        return []
    best = max(m[0] for m in matches)
    return [(layer, pattern) for fit, layer, pattern in matches if fit == best]


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, ``None`` outside the package."""
    matches = layer_matches(module)
    return matches[0][0] if matches else None


def module_of_file(filename: str, src_root: str) -> Optional[str]:
    """Dotted module name of a file under ``src_root``, else ``None``."""
    path = os.path.abspath(filename)
    root = os.path.abspath(src_root) + os.sep
    if not path.startswith(root) or not path.endswith(".py"):
        return None
    parts = path[len(root) : -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def package_modules(src_root: str) -> List[str]:
    """Every module of the ``repro`` package under ``src_root``."""
    modules = []
    for directory, _, files in os.walk(os.path.join(src_root, "repro")):
        for name in files:
            if name.endswith(".py"):
                modules.append(module_of_file(os.path.join(directory, name), src_root))
    return sorted(modules)


# ----------------------------------------------------------------------
# cProfile buckets
# ----------------------------------------------------------------------
def profile_buckets(raw_stats: dict, src_root: str) -> Dict[str, Dict[str, float]]:
    """Self time and call counts per layer from ``pstats.Stats(...).stats``.

    ``calls`` counts calls of Python functions defined in the layer's
    modules, so it is an integer that repeats exactly for a fixed seed.
    ``self_s`` adds to those functions' self time the self time of
    functions outside the package (builtins, stdlib, scipy), split over
    their callers in proportion to the time each call site spent in
    them, so ``heapq.heappush`` counts for the kernel that called it.
    """
    home: Dict[tuple, Optional[str]] = {
        func: layer_of(module_of_file(func[0], src_root) or "") for func in raw_stats
    }
    shares: Dict[tuple, Dict[str, float]] = {}

    def share(func: tuple, active: frozenset) -> Dict[str, float]:
        if home.get(func):
            return {home[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = raw_stats[func][4]
        weights = {c: w[2] for c, w in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(w[1]) for c, w in callers.items() if c not in active}
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total > 0:
            for caller, weight in weights.items():
                for layer, part in share(caller, active | {func}).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
        shares[func] = result
        return result

    buckets = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYER_PATTERNS}
    for func, (_, calls, self_time, _, _) in raw_stats.items():
        layer = home[func]
        if layer:
            buckets[layer]["calls"] += calls
            buckets[layer]["self_s"] += self_time
            continue
        for owner, part in share(func, frozenset()).items():
            buckets[owner]["self_s"] += self_time * part
    return buckets


# ----------------------------------------------------------------------
# -X importtime
# ----------------------------------------------------------------------
def parse_importtime(lines: Iterable[str]) -> List[Tuple[int, str, float, float]]:
    """``(depth, module, self_s, cumulative_s)`` per ``-X importtime`` line."""
    entries = []
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip("\n")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append(
            (depth, name.strip(), int(fields[0]) / 1e6, int(fields[1]) / 1e6)
        )
    return entries


def _outermost_cumulative(entries, family) -> float:
    """Cumulative time of ``family`` entries not nested in another one.

    ``-X importtime`` prints a module after everything it imported, so
    walking the log backwards meets each parent before its children.
    """
    total = 0.0
    stack: List[Tuple[int, bool]] = []  # (depth, inside the family)
    for depth, name, _, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        nested = bool(stack) and stack[-1][1]
        member = family(name)
        if member and not nested:
            total += cumulative
        stack.append((depth, member or nested))
    return total


def startup_split(entries) -> Dict[str, float]:
    """``import repro.__main__`` time and its scipy share, in seconds."""
    return {
        "import_s": _outermost_cumulative(entries, lambda m: _covers("repro", m)),
        "import_scipy_s": _outermost_cumulative(
            entries, lambda m: _covers("scipy", m)
        ),
    }
