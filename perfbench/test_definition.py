"""BENCHMARK.json names the workloads and metrics that run.py produces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import run
import workloads

DEFINITION = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class DefinitionTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in DEFINITION["workloads"]], list(workloads.WORKLOADS))

    def test_metric_names_and_units_match(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in DEFINITION[key]}, units, key)

    def test_item_names_are_unique(self):
        for workload in workloads.WORKLOADS.values():
            names = [item.name for item in workload.items]
            self.assertEqual(len(names), len(set(names)), workload.name)


if __name__ == "__main__":
    unittest.main()
