"""Golden fingerprints of the F-tree greedy selector.

Every FT variant is run on a small Erdős graph and a small partitioned
graph, in both sampling modes (``crn`` on and off) and on two sampling
backends.  The selected edges, the final flow, each iteration's gain,
flow and probed/pruned/delayed counts, and the sampler's component
counters are compared bit for bit (floats as ``float.hex``) against
``data/selection_golden.json``.  A change to the selector's probe loop
that claims to leave selections untouched must pass this file unmodified.

``exact_threshold`` is 4: short cycles are enumerated and longer ones
sampled, so exact enumeration, the Monte-Carlo streams, CI pruning and
delayed sampling all take part in the fingerprints (pinned by
``test_golden_cases_exercise_every_path``).

Re-record (only when a selection change is intended)::

    PYTHONPATH=src python tests/test_selection_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.graph.generators import erdos_renyi_graph, partitioned_graph
from repro.selection.ftree_greedy import FTreeGreedySelector

GOLDEN_PATH = Path(__file__).parent / "data" / "selection_golden.json"

GRAPHS = {
    "erdos": lambda: erdos_renyi_graph(30, average_degree=6.0, seed=11),
    "partitioned": lambda: partitioned_graph(30, degree=4, seed=5),
}
VARIANTS = {
    "FT": {},
    "FT+M": {"memoize": True},
    "FT+M+CI": {"memoize": True, "confidence": True},
    "FT+M+DS": {"memoize": True, "delayed": True},
    "FT+M+CI+DS": {"memoize": True, "confidence": True, "delayed": True},
}
CRN_MODES = {"crn": True, "resample": False}
BACKENDS = ("naive", "csr")
BUDGET = 14


def _case_ids():
    return [
        f"{graph}/{variant}/{mode}/{backend}"
        for graph in GRAPHS
        for variant in VARIANTS
        for mode in CRN_MODES
        for backend in BACKENDS
    ]


def fingerprint(case_id: str) -> Dict[str, object]:
    graph_name, variant, mode, backend = case_id.split("/")
    selector = FTreeGreedySelector(
        n_samples=200,
        exact_threshold=4,
        seed=7,
        backend=backend,
        crn=CRN_MODES[mode],
        **VARIANTS[variant],
    )
    result = selector.select(GRAPHS[graph_name](), 0, BUDGET)
    assert result.algorithm == variant
    return {
        "edges": [[edge.u, edge.v] for edge in result.selected_edges],
        "expected_flow": result.expected_flow.hex(),
        "iterations": [
            [
                step.gain.hex(),
                step.flow_after.hex(),
                step.candidates_probed,
                step.candidates_pruned,
                step.candidates_delayed,
            ]
            for step in result.iterations
        ],
        "sampled_components": int(result.extras["sampled_components"]),
        "exact_components": int(result.extras["exact_components"]),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


def test_golden_cases_exercise_every_path(golden):
    # the fingerprints only guard sampling, enumeration, CI pruning and
    # delayed sampling if each of them actually happens on both graphs
    for graph_name in GRAPHS:
        entries = [e for c, e in golden.items() if c.startswith(graph_name + "/")]
        assert any(entry["sampled_components"] > 0 for entry in entries)
        assert any(entry["exact_components"] > 0 for entry in entries)
        assert any(step[3] > 0 for entry in entries for step in entry["iterations"])
        assert any(step[4] > 0 for entry in entries for step in entry["iterations"])


@pytest.mark.parametrize("case_id", _case_ids())
def test_selection_matches_golden(golden, case_id):
    assert fingerprint(case_id) == golden[case_id]


def _record() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    table = {case_id: fingerprint(case_id) for case_id in _case_ids()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
