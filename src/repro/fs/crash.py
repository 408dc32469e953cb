"""Power-failure injection.

The paper's consistency test (Section 5.2) pulls the plug with
``halt -f -p -n`` while fillrandom runs. The equivalent here is
:func:`crash_and_recover`: drop everything volatile, run journal recovery
(already-committed transactions were applied when they committed, so
recovery is re-establishing the durable view), and report what survived.

The report is built entirely from :class:`~repro.fs.ext4.Ext4`'s public
durable-view API (:meth:`~repro.fs.ext4.Ext4.durable_namespace` /
:meth:`~repro.fs.ext4.Ext4.durable_stat`), so it states *before* the
power is cut exactly what the machine will wake up with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.fs.ext4 import Ext4


@dataclass
class CrashReport:
    """What a power failure left behind."""

    surviving_paths: List[str]
    lost_paths: List[str]
    truncated_paths: Dict[str, "tuple[int, int]"]  # path -> (live, durable)
    #: committed files whose unlink had not committed: path -> durable size
    reappeared_paths: Dict[str, int] = field(default_factory=dict)


def predict_crash_report(fs: Ext4) -> CrashReport:
    """What a power failure *right now* would leave behind (no crash).

    Compares the live namespace against the durable view: paths absent
    from the durable namespace are lost; paths whose durable size trails
    their live size are truncated; durable paths no longer visible in the
    live namespace (their unlink/rename-over has not committed) reappear.
    """
    durable = fs.durable_namespace()
    live_paths = fs.list_dir("")
    surviving: List[str] = []
    lost: List[str] = []
    truncated: Dict[str, "tuple[int, int]"] = {}
    reappeared: Dict[str, int] = {}
    for path in live_paths:
        live_size = fs.stat_size(path)
        durable_size = fs.durable_stat(path)
        if durable_size is None:
            lost.append(path)
            continue
        if durable_size < live_size:
            truncated[path] = (live_size, durable_size)
        surviving.append(path)
    live_set = set(live_paths)
    for path in sorted(durable):
        if path not in live_set:
            # A committed file whose unlink had not committed reappears,
            # truncated to its own committed size.
            surviving.append(path)
            reappeared[path] = fs.durable_stat(path)
    return CrashReport(
        surviving_paths=sorted(surviving),
        lost_paths=sorted(lost),
        truncated_paths=truncated,
        reappeared_paths=reappeared,
    )


def crash_and_recover(fs: Ext4) -> CrashReport:
    """Power off the machine, then mount and recover the file system.

    Returns a :class:`CrashReport` describing which paths vanished (never
    committed), which were truncated (volatile tail lost), which survived
    intact, and which reappeared (their unlink never committed).
    """
    report = predict_crash_report(fs)
    fs.crash()
    return report
