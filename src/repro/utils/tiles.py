"""Row tiles: how a forward-only stage cuts a level and where the tiles run."""

from __future__ import annotations

from typing import Callable, List, Optional

__all__ = ["ONE_TILE", "Tiles"]


class Tiles:
    """Cuts the rows of one level into tiles and runs a stage on each.

    ``Tiles()`` is one tile on the calling thread.  ``Tiles(rows, runner)``
    cuts ``R`` rows into ``ceil(R / rows)`` tiles of near-equal size and
    hands ``runner(call, count)`` the tile calls, ``call(i)`` for each index
    ``i < count``; the runner returns once every call has returned.  A stage
    writes only its own tile's rows of its outputs, so the result never
    depends on which thread ran which tile.
    """

    def __init__(self, rows: Optional[int] = None,
                 runner: Optional[Callable[[Callable[[int], None], int], None]] = None
                 ) -> None:
        if rows is not None and rows < 1:
            raise ValueError(f"a tile holds at least one row, got {rows}")
        self.rows = rows
        self.runner = runner

    def split(self, rows: int) -> List[slice]:
        """The tiles of a ``rows``-row level, in order."""
        if self.rows is None or rows <= self.rows:
            return [slice(0, rows)]
        count = -(-rows // self.rows)
        return [slice(i * rows // count, (i + 1) * rows // count)
                for i in range(count)]

    def run(self, work: Callable[[int, slice], None], tiles: List[slice]) -> None:
        """Call ``work(i, tiles[i])`` for every tile."""
        if self.runner is None:
            for index, rows in enumerate(tiles):
                work(index, rows)
        else:
            self.runner(lambda index: work(index, tiles[index]), len(tiles))


#: one tile on the calling thread: what a forward-only stage runs when its
#: caller passes no tiles.
ONE_TILE = Tiles()
