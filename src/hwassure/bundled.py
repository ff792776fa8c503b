"""Access to the benchmark circuits shipped with the package."""

from __future__ import annotations

import importlib.resources
from typing import List

from .netlist import Circuit, load_bench, parse_bench


def bundled_names() -> List[str]:
    root = importlib.resources.files("hwassure") / "data"
    names = [
        entry.name[:-6]
        for entry in root.iterdir()
        if entry.name.endswith(".bench")
    ]
    return sorted(names)


def bundled_bench_text(name: str) -> str:
    res = importlib.resources.files("hwassure") / "data" / f"{name}.bench"
    if not res.is_file():
        raise FileNotFoundError(f"no bundled bench named {name!r}; have {bundled_names()}")
    return res.read_text(encoding="utf-8")


def load_bundled(name: str) -> Circuit:
    return parse_bench(bundled_bench_text(name), name=name)


def load_bench_ref(spec: str) -> Circuit:
    """Load a circuit from a 'pkg:NAME' reference or a filesystem path."""
    if spec.startswith("pkg:"):
        return load_bundled(spec[4:])
    return load_bench(spec)
