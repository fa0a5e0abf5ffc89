"""The single-threaded page hit path against the latched one.

A single-threaded buffer pool serves resident pages without its latch,
and a disk region writes uncommitted pages in place without the
allocation and shadowing steps. A pool switched to thread-safe mode
keeps the full path. The same workload must cause the same page
traffic, leave the same file and give the same answers on both.
"""

import pytest

from repro.disk import DiskSpineIndex
from repro.sequences import generate_dna

TEXT = generate_dna(3000, seed=27)
PATTERNS = [TEXT[i:i + k] for i, k in ((5, 6), (700, 9), (1450, 12),
                                       (2210, 7), (2990, 10))]
PATTERNS += ["ACGTACGTAC", "TTTTTTT", "G"]


def run_workload(path, policy, buffer_pages, thread_safe):
    """Extend, query and checkpoint in three steps; returns the
    answers, the pool's traffic counters and the page file's bytes."""
    ix = DiskSpineIndex(path=str(path), page_size=256,
                        buffer_pages=buffer_pages, policy=policy,
                        wal_fsync=None)
    if thread_safe:
        ix.enable_concurrent_reads()
    answers = []
    for stop in (1200, 2100, len(TEXT)):
        ix.extend(TEXT[len(ix):stop])
        answers.append([ix.contains(p) for p in PATTERNS])
        answers.append([ix.find_all(p) for p in PATTERNS])
        ix.checkpoint()
    metrics = ix.pagefile.metrics.snapshot()
    ix.close()
    with open(path, "rb") as handle:
        return answers, metrics, handle.read()


@pytest.mark.parametrize("buffer_pages", [4, 64])
@pytest.mark.parametrize("policy", ["lru", "clock", "pintop"])
def test_both_pool_paths_see_the_same_traffic(tmp_path, policy,
                                              buffer_pages):
    fast = run_workload(tmp_path / "fast.pages", policy, buffer_pages,
                        thread_safe=False)
    latched = run_workload(tmp_path / "latched.pages", policy,
                           buffer_pages, thread_safe=True)
    answers, metrics, raw = fast
    assert answers == latched[0]
    assert metrics == latched[1]
    assert raw == latched[2]
    assert answers[-2] == [p in TEXT for p in PATTERNS]
    # The workload reaches the miss and eviction paths too.
    assert metrics["buffer_misses"] and metrics["evictions"]


def test_write_after_checkpoint_still_shadows(tmp_path):
    path = tmp_path / "cow.pages"
    ix = DiskSpineIndex(path=str(path), page_size=256, buffer_pages=8,
                        wal_fsync=None)
    ix.extend(TEXT[:1000])
    ix.checkpoint()
    lt = ix._lt
    node = len(ix) + 1
    page_no = node // lt.per_page
    # The next LT entry lands on a page the checkpoint committed.
    assert page_no < len(lt.pages)
    committed = lt.pages[page_no]
    assert committed in ix._ledger.committed
    size = ix.pagefile.page_size

    def on_disk(page_id):
        with open(path, "rb") as handle:
            handle.seek(page_id * size)
            return handle.read(size)

    before = on_disk(committed)
    ix.extend(TEXT[1000:1001])
    assert committed in ix._ledger.pending_free
    assert lt.pages[page_no] != committed
    ix.flush()
    assert on_disk(committed) == before
    ix.close()
