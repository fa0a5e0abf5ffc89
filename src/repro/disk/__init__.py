"""Disk-resident indexes (paper Section 6.2).

* :class:`repro.disk.spine_disk.DiskSpineIndex` — a genuinely
  page-resident SPINE: every link/rib/extrib access during construction
  and search goes through a bounded buffer pool over struct-packed page
  records. The append-only Link Table gives the sequential-write,
  top-heavy-read behaviour Figure 8 documents.
* :class:`repro.disk.st_disk.DiskSuffixTree` — the suffix-tree
  competitor: nodes are laid onto pages in creation order (what a
  straightforward disk port of an in-memory suffix tree does) and all
  construction/search node touches are routed through the same buffer
  pool machinery, exposing the scattered access pattern responsible for
  ST's disk penalty in Figure 7 / Table 7.
"""

from repro.disk.spine_disk import DiskSpineIndex
from repro.disk.st_disk import DiskSuffixTree

__all__ = ["DiskSpineIndex", "DiskSuffixTree"]
