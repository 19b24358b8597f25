"""Gate-level cell library."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Cell:
    """A standard cell in the technology library.

    Attributes:
        name: cell name (e.g. ``"nand2"``).
        delay_ps: pin-to-pin propagation delay in picoseconds.  A single
            number is used (no rise/fall or slew dependence); this is the
            same simplification the paper's per-operation characterisation
            makes and is sufficient for relative comparisons.
        area_um2: cell area in square micrometres.
        num_inputs: number of input pins.
    """

    name: str
    delay_ps: float
    area_um2: float
    num_inputs: int


@dataclass
class TechLibrary:
    """A collection of standard cells plus sequential/flip-flop figures.

    Attributes:
        name: library name (e.g. ``"sky130_synthetic"``).
        cells: mapping from cell name to :class:`Cell`.
        register_delay_ps: clock-to-Q plus setup overhead charged per pipeline
            stage when computing post-synthesis slack.
        register_area_um2: area of a single flip-flop (used by area reports).
    """

    name: str
    cells: dict[str, Cell] = field(default_factory=dict)
    register_delay_ps: float = 0.0
    register_area_um2: float = 0.0

    def add_cell(self, cell: Cell) -> None:
        """Register a cell, replacing any previous cell of the same name."""
        self.cells[cell.name] = cell

    def cell(self, name: str) -> Cell:
        """Return the cell called ``name``.

        Raises:
            KeyError: if the library has no such cell.
        """
        if name not in self.cells:
            raise KeyError(f"library {self.name!r} has no cell {name!r}")
        return self.cells[name]

    def delay(self, name: str) -> float:
        """Propagation delay of cell ``name`` in picoseconds."""
        return self.cell(name).delay_ps

    def area(self, name: str) -> float:
        """Area of cell ``name`` in square micrometres."""
        return self.cell(name).area_um2
