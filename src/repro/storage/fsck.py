"""Offline integrity scan of a persisted disk SPINE index.

``fsck(path)`` never mutates the file and never stops at the first
problem: it probes both metadata slots, walks the generation chains,
re-derives the blob CRCs, verifies the per-page checksum trailer of
every page the active generation references, and sanity-checks the RT
free lists — accumulating everything it finds into one machine-readable
report (the ``repro fsck`` subcommand emits it as JSON).

The scan understands all three on-disk formats. Version-1/2 files have
no page checksums and no generation slots, so for them the scan is
limited to the metadata chain and the structural checks; the report
says so rather than silently claiming full coverage.
"""

from __future__ import annotations

import os
import struct

from repro.exceptions import CorruptPageError, StorageError
from repro.storage.pager import PageFile
from repro.storage.wal import replay_split, scan_wal, wal_path_for

_LEGACY = struct.Struct("<4sHq")
_MAGIC = b"SPDK"


def _walk_blob(blob, version):
    """Parse a metadata blob into counters, alphabet identity, region
    directories and RT free lists — the one parser of the format, also
    behind ``DiskSpineIndex.open``."""
    offset = 0
    n, rib_count, sep, sym_len = struct.unpack_from("<qqhH", blob, offset)
    offset += 20
    symbols = blob[offset:offset + sym_len].decode("utf-8")
    offset += sym_len
    flags, name = 0, "generic"
    if version >= 2:
        flags, name_len = struct.unpack_from("<BH", blob, offset)
        offset += 3
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
    max_fanout = max(1, len(symbols) - 1)
    region_names = ["cl", "lt", "ext"]
    region_names += [f"rt{k}" for k in range(1, max_fanout + 1)]
    regions = []
    for region in region_names:
        count, npages = struct.unpack_from("<qi", blob, offset)
        offset += 12
        pages = list(struct.unpack_from(f"<{npages}i", blob, offset))
        offset += 4 * npages
        regions.append({"name": region, "records": count,
                        "pages": pages})
    free_lists = {}
    for k in range(1, max_fanout + 1):
        (nfree,) = struct.unpack_from("<i", blob, offset)
        offset += 4
        free_lists[k] = list(struct.unpack_from(f"<{nfree}i", blob,
                                                offset))
        offset += 4 * nfree
    return {"n": n, "rib_count": rib_count, "separator": sep,
            "symbols": symbols, "flags": flags, "name": name,
            "regions": regions, "free_lists": free_lists}


def _read_slot(pagefile, slot):
    """``(generation, blob, chain)`` of one v3 slot, or raise — the
    same validation recovery-on-open applies."""
    from repro.disk.spine_disk import DiskSpineIndex

    return DiskSpineIndex._read_meta_slot(pagefile, slot)


def _check_free_lists(meta, report):
    """RT free lists must index in-range rows of existing RT pages and
    hold no duplicates."""
    regions = {r["name"]: r for r in meta["regions"]}
    for k, rows in meta["free_lists"].items():
        region = regions.get(f"rt{k}")
        npages = len(region["pages"]) if region else 0
        seen = set()
        for row in rows:
            if row in seen:
                report["errors"].append(
                    f"rt{k} free list: row {row} listed twice")
            seen.add(row)
            if row < 0:
                report["errors"].append(
                    f"rt{k} free list: negative row {row}")
            # Rows index records, capped by the pages the class owns;
            # without the record size we bound by the region's record
            # count high-water mark instead.
            elif region and row >= max(region["records"], 1) \
                    and npages == 0:
                report["errors"].append(
                    f"rt{k} free list: row {row} but class owns no pages")


def fsck(path, page_size=4096):
    """Scan a persisted disk SPINE index; returns the report dict.

    ``report["ok"]`` is True iff no errors were found (warnings — e.g.
    reduced coverage on a legacy file — do not fail the scan).
    """
    report = {
        "path": path,
        "page_size": page_size,
        "file_size": None,
        "page_count": None,
        "format": None,
        "slots": [],
        "active_generation": None,
        "regions": [],
        "pages_checked": 0,
        "corrupt_pages": [],
        "orphan_pages": 0,
        "wal": None,
        "errors": [],
        "warnings": [],
        "ok": False,
    }
    if not os.path.exists(path):
        report["errors"].append("no such file")
        return report
    size = os.path.getsize(path)
    report["file_size"] = size
    if size == 0:
        report["errors"].append("empty file — no checkpoint was ever "
                                "written")
        return report
    if size < page_size:
        report["errors"].append(
            f"file is {size} bytes, shorter than one {page_size}-byte "
            "page")
        return report
    page_count = size // page_size
    report["page_count"] = page_count
    if size % page_size:
        report["warnings"].append(
            f"{size % page_size} trailing bytes beyond the last whole "
            "page (torn final write?)")
    with open(path, "rb") as handle:
        head0 = handle.read(page_size)
        handle.seek(page_size)
        head1 = handle.read(page_size)
    version = None
    for head in (head0, head1):
        if len(head) >= _LEGACY.size and head[:4] == _MAGIC:
            (v,) = struct.unpack_from("<H", head, 4)
            if head is head0 and v in (1, 2):
                version = v
                break
            if v == 3:
                version = 3
                break
    if version is None:
        report["errors"].append(
            "not a disk SPINE index (no valid metadata slot)")
        return report
    report["format"] = version
    if version < 3:
        _fsck_legacy(path, page_size, page_count, version, report)
        checkpoint = None
    else:
        checkpoint = _fsck_v3(path, page_size, page_count, report)
    _fsck_wal(path, report, checkpoint)
    return report


def _fsck_wal(path, report, checkpoint):
    """Scan the sidecar WAL into ``report["wal"]`` against the active
    checkpoint's ``(generation, n)`` (``None`` when unknown).

    Only warnings come out of here: a torn tail is what recovery
    truncates by design, damage inside the checkpoint is skipped, and a
    WAL-less file must keep the exact exit semantics it had before WALs
    existed."""
    generation, checkpoint_n = checkpoint or (None, None)
    scan = scan_wal(wal_path_for(path), checkpoint_n)
    report["wal"] = scan.to_dict(checkpoint_n)
    if not scan.exists:
        return
    if not scan.header_ok:
        report["warnings"].append(
            f"WAL header does not parse ({scan.torn_reason}); recovery "
            "reinitializes it as an empty log")
        return
    for offset, nbytes in scan.damaged:
        report["warnings"].append(
            f"WAL frame at byte {offset} is damaged ({nbytes} bytes "
            "inside the checkpoint); recovery skips it and keeps the "
            "records after it")
    if scan.torn_reason is not None:
        report["warnings"].append(
            f"WAL tail torn after {len(scan.records)} valid record(s) "
            f"at LSN {scan.last_lsn}: {scan.torn_reason} "
            f"({scan.tail_bytes} bytes truncated on reopen)")
    if checkpoint_n is None:
        return
    _first, cut = replay_split(scan.records, checkpoint_n)
    if scan.base_generation != generation:
        report["warnings"].append(
            f"WAL base generation {scan.base_generation} is not the "
            f"active checkpoint's {generation}: the log did not witness "
            "it, so recovery restarts the log empty and replays none of "
            f"its {len(scan.records)} record(s)")
    elif cut < len(scan.records):
        report["warnings"].append(
            f"{len(scan.records) - cut} WAL record(s) from byte "
            f"{scan.records[cut].offset} on do not continue the active "
            f"checkpoint ({checkpoint_n} chars); recovery cuts them "
            "instead of replaying them")


def _fsck_v3(path, page_size, page_count, report):
    """Scan a v3 file into ``report``; returns the active checkpoint's
    ``(generation, n)``, or ``None`` when there is none."""
    pagefile = PageFile(path=path, page_size=page_size, checksums=True)
    pagefile._page_count = page_count
    try:
        candidates = []
        for slot in (0, 1):
            entry = {"slot": slot}
            if slot >= page_count:
                entry.update(status="invalid", error="past end of file")
                report["slots"].append(entry)
                continue
            try:
                gen, blob, chain = _read_slot(pagefile, slot)
            except (StorageError, struct.error) as exc:
                entry.update(status="invalid", error=str(exc))
            else:
                entry.update(status="valid", generation=gen,
                             chain_pages=len(chain))
                candidates.append((gen, slot, blob, chain))
            report["slots"].append(entry)
        if not candidates:
            report["errors"].append("no intact checkpoint generation")
            return None
        if len(candidates) < 2:
            report["warnings"].append(
                "only one metadata slot is valid (normal before the "
                "second checkpoint; after that, evidence of a torn "
                "commit that recovery would fall back from)")
        gen, slot, blob, chains_of_winner = max(candidates)
        report["active_generation"] = gen
        try:
            meta = _walk_blob(blob, 3)
        except (struct.error, UnicodeDecodeError) as exc:
            report["errors"].append(
                f"metadata blob of generation {gen} does not parse: "
                f"{exc}")
            return None
        report["regions"] = [
            {"name": r["name"], "records": r["records"],
             "pages": len(r["pages"])} for r in meta["regions"]]
        referenced = set()
        for r in meta["regions"]:
            for page_id in r["pages"]:
                if page_id in referenced:
                    report["errors"].append(
                        f"page {page_id} referenced by more than one "
                        "region slot")
                if not 0 <= page_id < page_count:
                    report["errors"].append(
                        f"{r['name']}: page {page_id} out of range "
                        f"0..{page_count - 1}")
                    continue
                if page_id in (0, 1):
                    report["errors"].append(
                        f"{r['name']}: page {page_id} is a metadata "
                        "slot")
                    continue
                referenced.add(page_id)
        # Per-page CRC verification of every data page the active
        # generation references (all-zero fresh pages are legitimate:
        # allocated, records packed in memory, but the page image
        # written by the committing flush — so any page that reached
        # the checkpoint is stamped; trust the trailer).
        for page_id in sorted(referenced):
            report["pages_checked"] += 1
            try:
                pagefile.read_page(page_id)
            except CorruptPageError as exc:
                report["corrupt_pages"].append(
                    {"page": page_id, "error": str(exc)})
            except StorageError as exc:
                report["corrupt_pages"].append(
                    {"page": page_id, "error": f"unreadable: {exc}"})
        if report["corrupt_pages"]:
            report["errors"].append(
                f"{len(report['corrupt_pages'])} corrupt page(s) in "
                f"generation {gen}")
        chain_pages = set()
        for _g, _s, _b, chain in candidates:
            chain_pages.update(chain)
        overlap = referenced & chain_pages
        if overlap:
            report["errors"].append(
                f"metadata chain pages also referenced as data: "
                f"{sorted(overlap)}")
        keep = referenced | chain_pages | {0, 1}
        report["orphan_pages"] = (
            page_count - len(keep & set(range(page_count))))
        _check_free_lists(meta, report)
        report["ok"] = not report["errors"]
        return gen, meta["n"]
    finally:
        pagefile.close(sync=False)


def _fsck_legacy(path, page_size, page_count, version, report):
    report["warnings"].append(
        f"format v{version} predates page checksums and generational "
        "slots; scan covers metadata structure only")
    pagefile = PageFile(path=path, page_size=page_size, checksums=False)
    pagefile._page_count = page_count
    try:
        frame = pagefile.read_page(0)
        _magic, _v, blob_len = _LEGACY.unpack_from(frame)
        per_page = page_size - 4
        if not 0 <= blob_len <= page_count * per_page:
            report["errors"].append(
                f"implausible metadata length {blob_len}")
            return report
        chunks = [bytes(frame[_LEGACY.size:per_page])]
        (nxt,) = struct.unpack_from("<i", frame, page_size - 4)
        seen = {0}
        chain = []
        while nxt != -1:
            if nxt in seen or not 0 <= nxt < page_count:
                report["errors"].append(
                    f"metadata chain broken at page {nxt}")
                return report
            seen.add(nxt)
            chain.append(nxt)
            frame = pagefile.read_page(nxt)
            chunks.append(bytes(frame[:per_page]))
            (nxt,) = struct.unpack_from("<i", frame, page_size - 4)
        blob = b"".join(chunks)[:blob_len]
        report["slots"].append({"slot": 0, "status": "valid",
                                "chain_pages": len(chain)})
        try:
            meta = _walk_blob(blob, version)
        except (struct.error, UnicodeDecodeError) as exc:
            report["errors"].append(
                f"metadata blob does not parse: {exc}")
            return report
        report["regions"] = [
            {"name": r["name"], "records": r["records"],
             "pages": len(r["pages"])} for r in meta["regions"]]
        referenced = set()
        for r in meta["regions"]:
            for page_id in r["pages"]:
                if not 0 <= page_id < page_count:
                    report["errors"].append(
                        f"{r['name']}: page {page_id} out of range "
                        f"0..{page_count - 1}")
                else:
                    referenced.add(page_id)
        report["pages_checked"] = len(referenced)
        _check_free_lists(meta, report)
        report["ok"] = not report["errors"]
        return report
    finally:
        pagefile.close(sync=False)
