"""The ``ReportSection`` seam: subsystems register report sections.

``LogLensService.report()`` used to hand-build every sub-dict of the
report; each new subsystem (quarantine accounting, now alerting) meant
editing the service.  A :class:`ReportSection` is anything with a
``section_name`` and a ``report_section()`` returning a JSON-safe dict;
the service keeps an ordered registry and assembles
``ServiceReport.sections`` from it, so a subsystem surfaces itself by
registering — the report code never changes again.

Section ordering is the registration order and is part of the report
contract (pinned by a regression test): ``quarantine`` first, then
``alerts``, then any future registrations.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

__all__ = ["ReportSection"]


@runtime_checkable
class ReportSection(Protocol):
    """One named section of a :class:`~repro.service.ServiceReport`."""

    #: Key this section appears under in ``ServiceReport.sections``
    #: (and therefore in ``report.to_dict()``).
    section_name: str

    def report_section(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of this subsystem's state."""
        ...
