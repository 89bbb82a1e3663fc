"""Output checks. Each returns failure messages; an empty list means it passed.

They take the objects under test as arguments, so the self-tests can hand
them a corrupted model or a wrong prediction line and see them fail.
"""

from __future__ import annotations

from pathlib import Path


def line_mismatches(expected: list[str], got: list[str]) -> list[str]:
    """One failure per position where the two line lists differ."""
    failures = []
    for i in range(max(len(expected), len(got))):
        want = expected[i] if i < len(expected) else None
        have = got[i] if i < len(got) else None
        if want != have:
            failures.append(f"line {i + 1}: expected {want!r}, got {have!r}")
    return failures


def roundtrip_failures(pipeline_cls, model_path: Path, scratch_path: Path) -> list[str]:
    """Loading a saved model and saving it again must reproduce its bytes."""
    original = Path(model_path).read_bytes()
    try:
        pipeline_cls.load(model_path).save(scratch_path)
    except (ValueError, OSError) as exc:
        return [f"{Path(model_path).name}: load/save failed: {exc}"]
    if Path(scratch_path).read_bytes() != original:
        return [f"{Path(model_path).name}: load then save changed the bytes"]
    return []


def fold_total_failures(reports, corpus_size: int) -> list[str]:
    """Every grid config must score each message exactly once over its folds."""
    failures = []
    for r in reports:
        total = sum(o.counts.spam_total + o.counts.legit_total for o in r.per_fold)
        if total != corpus_size:
            failures.append(
                f"{r.config_name}: fold counts add up to {total}, corpus has {corpus_size}"
            )
    return failures
