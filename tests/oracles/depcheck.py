"""Scalar oracle of :func:`repro.tls.depcheck.check_subloop`."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.ir.interpreter import LaneSpecState
from repro.tls.depcheck import DcResult, Violation


def check_subloop_scalar(
    lanes: Mapping[int, LaneSpecState],
    order: Sequence[int],
) -> DcResult:
    """Reference (per-record) implementation (the cross-check oracle)."""
    pos = {it: p for p, it in enumerate(order)}
    # cell -> earliest writer position (the first write wins for "is there
    # an earlier writer" queries against readers)
    writer_pos: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for it in order:
        state = lanes.get(it)
        if state is None:
            continue
        p = pos[it]
        for rec in state.writes:
            writer_pos.setdefault((rec.array, rec.flat), []).append((p, it))

    result = DcResult()
    for it in order:
        state = lanes.get(it)
        if state is None:
            continue
        p = pos[it]
        for rec in state.reads:
            writers = writer_pos.get((rec.array, rec.flat))
            if not writers:
                continue
            # any earlier writer? (writers are in ascending position order)
            src = None
            for wp, wit in writers:
                if wp >= p:
                    break
                src = wit
            if src is not None:
                result.violations.append(
                    Violation(it, src, rec.array, rec.flat)
                )
                if (
                    result.first_violation_pos is None
                    or p < result.first_violation_pos
                ):
                    result.first_violation_pos = p
                break  # one violation per iteration is enough to squash it
    return result
