"""Random jigsaw puzzles: generation, reconstruction, and oracles."""

from .grid import (
    Assembly,
    EdgeId,
    PieceBag,
    Puzzle,
    disassemble,
    is_feasible,
    piece_at,
)
from .gen import generate, generate_variant

__all__ = [
    "Assembly",
    "EdgeId",
    "PieceBag",
    "Puzzle",
    "disassemble",
    "generate",
    "generate_variant",
    "is_feasible",
    "piece_at",
]

__version__ = "0.1.0"
