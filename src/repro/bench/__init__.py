"""Benchmark harness regenerating the paper's Figures 1-7."""

from .figures import full_mode
from .reporting import FigurePoint, FigureResult, format_figure, save_figure

__all__ = [
    "full_mode",
    "FigurePoint", "FigureResult", "format_figure", "save_figure",
]
