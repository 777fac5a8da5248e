"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the evaluation section
(Section V), prints the rows/series, and writes them under
``benchmarks/results/`` so EXPERIMENTS.md can reference stable artifacts.
Shapes (who wins, directions of shifts, crossovers) are asserted; absolute
numbers are simulator-specific by design.
"""

from __future__ import annotations

import os
from typing import Iterable

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Write (and echo) a named result table."""

    def _record(name: str, lines: Iterable[str]) -> str:
        text = "\n".join(lines)
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\n=== {name} ===")
        print(text)
        return path

    return _record
