"""Minimal fixed-width ASCII table rendering shared by benches and examples.

Defined in :mod:`repro.obs.report`, where the observability renderers can
import it at module level; this is the name benches, examples and the CLI use.
"""

from repro.obs.report import format_cell, render_table

__all__ = ["render_table", "format_cell"]
