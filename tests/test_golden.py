"""Characterization tests: model bytes and grid rates equal the stored table.

The table and how to regenerate it are described in ``golden.py``.
"""

import golden


def test_model_files_match_the_golden_table(tmp_path):
    moved = golden.moved(golden.load()["models"], golden.model_digests(tmp_path))
    assert not moved, f"model bytes or predictions moved: {moved}"


def test_grid_rates_match_the_golden_digest(tmp_path):
    assert golden.grid_digest(tmp_path) == golden.load()["grid_rates_csv"]
