"""Where :class:`OutageWindow` used to live; it is a fault effect now.

A provider's outages are :class:`~repro.faults.profile.OutageWindow` effects
in its one :class:`~repro.faults.profile.FaultProfile`
(``provider.faults.add(OutageWindow(start, end))``).  This module keeps the
old import path working.
"""

from repro.faults.profile import OutageWindow

__all__ = ["OutageWindow"]
