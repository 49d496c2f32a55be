"""Task model: a schedulable unit of loop work.

"Here a task or job refers to a loop."  A task wraps a translated loop
(optionally restricted to an index sub-range, for the sub-loop splitting
the paper applies to BICG and Crypt) plus the dynamic dependency class
used by the distribution rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..translate.translator import TranslatedLoop


@dataclass
class Task:
    """One schedulable loop (or loop sub-range)."""

    loop: TranslatedLoop
    #: explicit index sequence; None = the loop's full iteration space
    index_override: Optional[Sequence[int]] = None
    suffix: str = ""

    @property
    def id(self) -> str:
        return self.loop.id + self.suffix

    def indices(self, env: Mapping[str, object]) -> Sequence[int]:
        """The task's iteration space, a ``range`` unless overridden."""
        if self.index_override is not None:
            return self.index_override
        return self.loop.analysis.info.indices(env)

    def split(self, parts: int, env: Mapping[str, object]) -> list["Task"]:
        """Divide the task into ``parts`` contiguous sub-loop tasks."""
        from ..cpusim.threads import block_partition

        blocks = block_partition(self.indices(env), parts)
        return [
            Task(self.loop, block, suffix=f"{self.suffix}/{k}")
            for k, block in enumerate(blocks)
            if block
        ]

    # -- distribution hints (paper §V-B rules) -----------------------------

    @property
    def is_static_doall(self) -> bool:
        return self.loop.is_static_doall

    @property
    def cpu_only(self) -> bool:
        return self.loop.cpu_only
