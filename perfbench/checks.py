"""Output checks that fail a benchmark run.

Each check returns a list of problems; an empty list means the output
is correct. The workloads collect problems instead of raising, so one
run reports every check that failed.
"""

from __future__ import annotations

from mixbo.space import SearchSpace, ValidationError


def batch_problems(space: SearchSpace, points: list, batch_size: int) -> list[str]:
    """A batch must hold batch_size points, each valid in the space."""
    problems = []
    if len(points) != batch_size:
        problems.append(f"batch has {len(points)} points, expected {batch_size}")
    for i, point in enumerate(points):
        try:
            space.validate(point)
        except (ValidationError, TypeError, KeyError) as exc:
            problems.append(f"point {i} of a batch is invalid: {exc}")
    return problems


def same_problems(what: str, got, want) -> list[str]:
    """Two runs that should agree exactly (curves or batches) must."""
    if list(got) != list(want):
        return [f"{what} differs: {list(got)[:4]}... vs {list(want)[:4]}..."]
    return []
