"""Disk-resident SPINE: equivalence with the in-memory index plus
I/O behaviour."""

import os
import random

import pytest

from repro.alphabet import Alphabet, dna_alphabet, protein_alphabet
from repro.core import SpineIndex
from repro.core.matching import matching_statistics, maximal_matches
from repro.disk import DiskSpineIndex
from repro.exceptions import AlphabetError, ConstructionError, SearchError
from repro.sequences import derive_sequence, generate_dna, generate_protein


def build_pair(text, symbols, buffer_pages=4, page_size=256, **kwargs):
    alpha = Alphabet(symbols)
    mem = SpineIndex(text, alphabet=alpha)
    dsk = DiskSpineIndex(alphabet=alpha, buffer_pages=buffer_pages,
                         page_size=page_size, **kwargs)
    dsk.extend(text)
    return mem, dsk


class TestEquivalence:
    def test_links_equal_under_tiny_buffer(self):
        rng = random.Random(71)
        for _ in range(25):
            syms = "abcd"[:rng.choice([2, 3, 4])]
            text = "".join(rng.choice(syms)
                           for _ in range(rng.randint(1, 150)))
            mem, dsk = build_pair(text, syms)
            for i in range(1, len(text) + 1):
                assert dsk.link(i) == mem.link(i), (text, i)
            dsk.close()

    def test_find_all_equal(self):
        text = generate_dna(2500, seed=81)
        mem, dsk = build_pair(text, "ACGT", buffer_pages=8,
                              page_size=512)
        for start in (0, 450, 1300, 2480):
            pattern = text[start:start + 10]
            assert dsk.find_all(pattern) == mem.find_all(pattern)
        dsk.close()

    def test_matching_statistics_equal(self):
        text = generate_dna(1500, seed=82)
        query = generate_dna(600, seed=83)
        mem, dsk = build_pair(text, "ACGT", buffer_pages=8,
                              page_size=512)
        disk_result = dsk.matching_statistics(query)
        mem_result = matching_statistics(mem, query)
        assert disk_result.lengths == mem_result.lengths
        assert disk_result.checks == mem_result.checks
        dsk.close()

    def test_maximal_matches_equal(self):
        text = generate_dna(1200, seed=84)
        query = text[300:700]  # guaranteed deep matches
        mem, dsk = build_pair(text, "ACGT", buffer_pages=8,
                              page_size=512)
        mm_mem, _ = maximal_matches(mem, query, min_length=8)
        mm_dsk, _ = dsk.maximal_matches(query, min_length=8)
        key = lambda m: (m.query_start, m.length,
                         tuple(sorted(m.data_starts)))
        assert sorted(map(key, mm_mem)) == sorted(map(key, mm_dsk))
        dsk.close()

    def test_protein_alphabet(self):
        text = generate_protein(1200, seed=85)
        mem = SpineIndex(text, alphabet=protein_alphabet())
        dsk = DiskSpineIndex(alphabet=protein_alphabet(),
                             buffer_pages=8, page_size=1024)
        dsk.extend(text)
        for i in range(1, len(text) + 1, 13):
            assert dsk.link(i) == mem.link(i)
        assert dsk.rib_count == len(mem._ribs)
        dsk.close()


class TestPersistence:
    def test_file_backed_roundtrip(self, tmp_path):
        path = str(tmp_path / "spine.pages")
        text = "ACGTACGGTTACGAC" * 30
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=4, page_size=512) as dsk:
            dsk.extend(text)
            assert dsk.contains("GGTTACG")
            dsk.flush()
        # Bytes actually hit the file.
        assert (tmp_path / "spine.pages").stat().st_size > 0

    def test_sync_writes_forced(self, tmp_path):
        path = str(tmp_path / "spine.pages")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=2, page_size=256,
                            sync_writes=True) as dsk:
            dsk.extend("ACGT" * 50)
            dsk.flush()
            assert dsk.pagefile.metrics.sync_writes > 0


class TestPolicies:
    @pytest.mark.parametrize("policy", ["lru", "clock", "pintop"])
    def test_all_policies_correct(self, policy):
        text = generate_dna(1000, seed=86)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                             page_size=256, policy=policy)
        dsk.extend(text)
        for i in range(1, len(text) + 1, 7):
            assert dsk.link(i) == mem.link(i)
        dsk.close()

    def test_unknown_policy(self):
        with pytest.raises(ConstructionError):
            DiskSpineIndex(alphabet=dna_alphabet(), policy="mru")

    def test_pintop_protects_only_live_top_pages(self, tmp_path):
        # Checkpoints shadow CL and top-LT pages to fresh ids and later
        # reclaim the old ids; the protected set must follow the live
        # pages, not accumulate every id they ever had.
        text = generate_dna(6000, seed=3)
        ix = DiskSpineIndex(path=str(tmp_path / "pin.spd"), page_size=256,
                            buffer_pages=16, policy="pintop")
        policy = ix.pool.policy

        def check():
            live = set(ix._cl.pages) | set(
                ix._lt.pages[:ix._pintop_pages])
            assert policy.protected_pages == live
            assert set(policy._protected) <= live

        for i in range(0, len(text), 500):
            ix.extend(text[i:i + 500])
            check()
            ix.checkpoint()
            check()
        ix.close()


class TestValidation:
    def test_code_out_of_range(self):
        dsk = DiskSpineIndex(alphabet=dna_alphabet())
        with pytest.raises(ConstructionError):
            dsk.append_code(9)
        dsk.close()

    def test_link_out_of_range(self):
        dsk = DiskSpineIndex(alphabet=dna_alphabet())
        dsk.extend("ACG")
        with pytest.raises(SearchError):
            dsk.link(0)
        with pytest.raises(SearchError):
            dsk.link(4)
        dsk.close()

    def test_find_all_empty_pattern(self):
        dsk = DiskSpineIndex(alphabet=dna_alphabet())
        dsk.extend("ACG")
        with pytest.raises(SearchError):
            dsk.find_all("")
        dsk.close()

    def test_min_length_validated(self):
        dsk = DiskSpineIndex(alphabet=dna_alphabet())
        dsk.extend("ACGACG")
        with pytest.raises(SearchError):
            dsk.maximal_matches("ACG", min_length=0)
        dsk.close()


class TestIOBehaviour:
    def test_io_snapshot_counts_traffic(self):
        text = generate_dna(3000, seed=87)
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                             page_size=256)
        dsk.extend(text)
        dsk.flush()
        snap = dsk.io_snapshot()
        assert snap["writes"] > 0
        assert snap["buffer_hits"] > 0
        assert snap["reads"] + snap["writes"] <= \
            snap["buffer_hits"] + snap["buffer_misses"] + snap["writes"]

    def test_bigger_buffer_less_io(self):
        text = generate_dna(4000, seed=88)
        totals = []
        for pages in (4, 64):
            dsk = DiskSpineIndex(alphabet=dna_alphabet(),
                                 buffer_pages=pages, page_size=256)
            dsk.extend(text)
            dsk.flush()
            snap = dsk.io_snapshot()
            totals.append(snap["reads"] + snap["writes"])
            dsk.close()
        assert totals[1] < totals[0]


class TestCheckpointReopen:
    def test_roundtrip(self, tmp_path):
        from repro.disk import DiskSpineIndex

        path = str(tmp_path / "ck.spine")
        text = generate_dna(2500, seed=96)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert len(reopened) == len(text)
        assert reopened.rib_count == len(mem._ribs)
        for i in range(1, len(text) + 1, 17):
            assert reopened.link(i) == mem.link(i)
        probe = text[1234:1250]
        assert reopened.find_all(probe) == mem.find_all(probe)
        reopened.close()

    def test_resume_online_build_after_reopen(self, tmp_path):
        from repro.disk import DiskSpineIndex

        path = str(tmp_path / "resume.spine")
        text = generate_dna(1500, seed=97)
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend(text[:1000])
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        reopened.extend(text[1000:])
        mem = SpineIndex(text, alphabet=dna_alphabet())
        for i in range(1, len(text) + 1, 13):
            assert reopened.link(i) == mem.link(i)
        reopened.close()

    def test_close_with_checkpoint_flag(self, tmp_path):
        from repro.disk import DiskSpineIndex

        path = str(tmp_path / "flag.spine")
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                             buffer_pages=8)
        dsk.extend("ACGTACGTAC")
        dsk.close(checkpoint=True)
        reopened = DiskSpineIndex.open(path)
        assert len(reopened) == 10
        assert reopened.contains("GTAC")
        reopened.close()

    def test_open_missing_file(self, tmp_path):
        from repro.disk import DiskSpineIndex
        from repro.exceptions import StorageError

        with pytest.raises(StorageError):
            DiskSpineIndex.open(str(tmp_path / "nope.spine"))

    def test_open_non_index_file(self, tmp_path):
        from repro.disk import DiskSpineIndex
        from repro.exceptions import StorageError

        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 8192)
        with pytest.raises(StorageError):
            DiskSpineIndex.open(str(path))

    def test_alphabet_mismatch_detected(self, tmp_path):
        from repro.disk import DiskSpineIndex
        from repro.exceptions import StorageError

        path = str(tmp_path / "mis.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGT")
            dsk.checkpoint()
        with pytest.raises(StorageError):
            DiskSpineIndex.open(path, alphabet=Alphabet("ab"))

    def test_large_directory_spans_meta_pages(self, tmp_path):
        from repro.disk import DiskSpineIndex

        # Tiny pages force a long page directory that overflows the
        # single metadata page and exercises the continuation chain.
        path = str(tmp_path / "many.spine")
        text = generate_dna(4000, seed=98)
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            page_size=256, buffer_pages=8) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, page_size=256,
                                       buffer_pages=8)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        for i in range(1, len(text) + 1, 97):
            assert reopened.link(i) == mem.link(i)
        reopened.close()


class TestAlphabetFidelity:
    """Checkpoint metadata must carry the full alphabet identity:
    ``DiskSpineIndex.open`` used to rebuild a bare ``Alphabet(symbols)``,
    so a case-insensitive DNA index stopped answering lowercase queries
    after a reopen."""

    def _assert_same_alphabet(self, loaded, original):
        assert loaded.symbols == original.symbols
        assert loaded.separator_code == original.separator_code
        assert loaded.name == original.name
        assert loaded.case_insensitive == original.case_insensitive

    def test_lowercase_query_survives_reopen(self, tmp_path):
        path = str(tmp_path / "dna.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend("ACGTACGT")
            assert dsk.contains("acgt") is True
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.contains("acgt") is True
        self._assert_same_alphabet(reopened.alphabet, dna_alphabet())
        reopened.close()

    def test_default_alphabet_is_canonical_dna(self):
        dsk = DiskSpineIndex()
        dsk.extend("acgtACGT")  # lowercase folds instead of raising
        assert dsk.alphabet.name == "dna"
        assert dsk.alphabet.case_insensitive is True
        assert dsk.contains("gtac")
        dsk.close()

    def test_protein_index_reopens_without_alphabet(self, tmp_path):
        # total_size 20 != the probe's 4: open() must rebuild the RT
        # directories from the stored alphabet before loading them.
        path = str(tmp_path / "prot.spine")
        text = generate_protein(600, seed=5)
        with DiskSpineIndex(alphabet=protein_alphabet(), path=path,
                            buffer_pages=16) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=16)
        self._assert_same_alphabet(reopened.alphabet,
                                   protein_alphabet())
        mem = SpineIndex(text, alphabet=protein_alphabet())
        probe = text[200:212]
        assert reopened.find_all(probe) == mem.find_all(probe)
        assert reopened.contains(probe.lower())
        reopened.close()

    def test_case_folding_mismatch_detected(self, tmp_path):
        from repro.exceptions import StorageError

        path = str(tmp_path / "fold.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGT")
            dsk.checkpoint()
        case_sensitive_dna = Alphabet("ACGT", name="dna")
        with pytest.raises(StorageError, match="case folding"):
            DiskSpineIndex.open(path, alphabet=case_sensitive_dna)

    def test_name_mismatch_detected(self, tmp_path):
        from repro.exceptions import StorageError

        path = str(tmp_path / "name.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGT")
            dsk.checkpoint()
        renamed = Alphabet("ACGT", name="rna", case_insensitive=True)
        with pytest.raises(StorageError, match="name"):
            DiskSpineIndex.open(path, alphabet=renamed)

    def test_matching_alphabet_accepted(self, tmp_path):
        path = str(tmp_path / "ok.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGTACGT")
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, alphabet=dna_alphabet())
        assert reopened.contains("cgta")
        reopened.close()

    def test_version1_checkpoint_still_opens(self, tmp_path,
                                             monkeypatch):
        """Pre-identity (version 1) checkpoints load with the
        historical defaults: generic name, case-sensitive."""
        import struct as struct_mod

        def legacy_meta_blob(self):
            symbols = self.alphabet.symbols.encode("utf-8")
            sep = self.alphabet.separator_code
            parts = [struct_mod.pack(
                "<qqhH", self._n, self._rib_count,
                -1 if sep is None else sep, len(symbols)), symbols]
            for _, region in self._regions():
                parts.append(struct_mod.pack(
                    "<qi", region.count, len(region.pages)))
                parts.append(struct_mod.pack(
                    f"<{len(region.pages)}i", *region.pages))
            for k in sorted(self._rt_free):
                free = self._rt_free[k]
                parts.append(struct_mod.pack("<i", len(free)))
                parts.append(struct_mod.pack(f"<{len(free)}i", *free))
            return b"".join(parts)

        path = str(tmp_path / "v1.spine")
        text = generate_dna(800, seed=41)
        with monkeypatch.context() as patch:
            patch.setattr(DiskSpineIndex, "META_VERSION", 1)
            patch.setattr(DiskSpineIndex, "_meta_blob",
                          legacy_meta_blob)
            with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                                buffer_pages=8) as dsk:
                dsk.extend(text)
                dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.alphabet.name == "generic"
        assert reopened.alphabet.case_insensitive is False
        mem = SpineIndex(text, alphabet=dna_alphabet())
        probe = text[300:314]
        assert reopened.find_all(probe) == mem.find_all(probe)
        reopened.close()

    def test_structural_equality_after_reopen(self, tmp_path):
        path = str(tmp_path / "struct.spine")
        text = generate_dna(1200, seed=42)
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        for i in range(1, len(text) + 1, 7):
            assert reopened.link(i) == mem.link(i)
        self._assert_same_alphabet(reopened.alphabet, mem.alphabet)
        reopened.close()


class TestFormatCompatibility:
    """v1 AND v2 metadata files must keep opening after the v3
    (crash-safe) format became the default for new files."""

    def test_version2_checkpoint_still_opens(self, tmp_path):
        path = str(tmp_path / "v2.spine")
        text = generate_dna(900, seed=43)
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8, _format=2) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened._meta_format == 2
        assert reopened.alphabet.case_insensitive is True
        mem = SpineIndex(text, alphabet=dna_alphabet())
        probe = text[200:215]
        assert reopened.find_all(probe) == mem.find_all(probe)
        # a legacy file keeps checkpointing in its own layout
        reopened.extend(text[:100])
        reopened.checkpoint()
        reopened.close()
        again = DiskSpineIndex.open(path, buffer_pages=8)
        assert again._meta_format == 2
        assert len(again) == len(text) + 100
        again.close()

    def test_new_files_are_version3(self, tmp_path):
        import struct as struct_mod

        path = str(tmp_path / "v3.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGTACGT")
            dsk.checkpoint()
        # generation 1 commits to slot 1 (page 1): gen % 2 alternation
        with open(path, "rb") as handle:
            head0 = handle.read(4096)
            head1 = handle.read(4096)
        assert head1[:4] == b"SPDK"
        (version,) = struct_mod.unpack_from("<H", head1, 4)
        assert version == 3
        assert head0[:4] == b"\x00" * 4  # slot 0 untouched until gen 2

    def test_generation_survives_reopen(self, tmp_path):
        path = str(tmp_path / "gen.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGTACGT")
            dsk.checkpoint()
            dsk.extend("TTGGCCAA")
            dsk.checkpoint()
            assert dsk.generation == 2
        reopened = DiskSpineIndex.open(path)
        assert reopened.generation == 2
        reopened.close()


class TestOpenDiagnostics:
    def test_empty_file_is_descriptive(self, tmp_path):
        from repro.exceptions import StorageError

        path = tmp_path / "empty.spine"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="empty file"):
            DiskSpineIndex.open(str(path))

    def test_truncated_file_is_descriptive(self, tmp_path):
        from repro.exceptions import StorageError

        path = tmp_path / "trunc.spine"
        path.write_bytes(b"SPDK" + b"\x00" * 100)
        with pytest.raises(StorageError, match="shorter than one"):
            DiskSpineIndex.open(str(path))

    def test_future_format_rejected(self, tmp_path):
        import struct as struct_mod

        from repro.exceptions import StorageError

        path = tmp_path / "future.spine"
        frame = bytearray(8192)
        frame[:4] = b"SPDK"
        struct_mod.pack_into("<H", frame, 4, 9)
        path.write_bytes(bytes(frame))
        with pytest.raises(StorageError, match="unsupported disk format"):
            DiskSpineIndex.open(str(path))


class TestCheckpointDifferential:
    def test_reopened_concurrent_index_matches_memory(self, tmp_path):
        """Checkpoint → reopen → enable_concurrent_reads must answer
        exactly like the in-memory index, including under parallel
        query threads."""
        import threading

        path = str(tmp_path / "diff.spine")
        text = generate_dna(3000, seed=44)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend(text)
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        reopened.enable_concurrent_reads()

        rng = random.Random(45)
        patterns = []
        for _ in range(60):
            start = rng.randrange(0, len(text) - 16)
            patterns.append(text[start:start + rng.randrange(4, 16)])
        expected = {p: mem.find_all(p) for p in patterns}

        failures = []

        def worker(chunk):
            for pattern in chunk:
                got = reopened.find_all(pattern)
                if got != expected[pattern]:
                    failures.append((pattern, got))

        threads = [threading.Thread(target=worker,
                                    args=(patterns[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        reopened.close()

    def test_checkpoint_after_further_growth_matches_memory(self,
                                                            tmp_path):
        """Copy-on-write shadowing must not corrupt query results
        across grow → checkpoint → grow → checkpoint cycles."""
        path = str(tmp_path / "cow.spine")
        text = generate_dna(2400, seed=46)
        third = len(text) // 3
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as dsk:
            dsk.extend(text[:third])
            dsk.checkpoint()
            dsk.extend(text[third:2 * third])
            dsk.checkpoint()
            dsk.extend(text[2 * third:])
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        mem = SpineIndex(text, alphabet=dna_alphabet())
        rng = random.Random(47)
        for _ in range(40):
            start = rng.randrange(0, len(text) - 12)
            pattern = text[start:start + rng.randrange(3, 12)]
            assert reopened.find_all(pattern) == mem.find_all(pattern)
        for i in range(1, len(text) + 1, 53):
            assert reopened.link(i) == mem.link(i)
        reopened.close()


class TestCleanOpen:
    def test_unwritten_metadata_slot_is_not_a_corrupt_page(self,
                                                           tmp_path):
        """After one checkpoint only slot 1 holds a generation; slot 0
        is all zeroes and must not count as a corrupt page."""
        from repro.obs import get_registry

        path = str(tmp_path / "once.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGTACGTTGCA")
            dsk.checkpoint()
        registry = get_registry()
        registry.enable()
        try:
            before = registry.counter("storage.corruption.pages").value
            reopened = DiskSpineIndex.open(path)
            assert reopened.pagefile.metrics.checksum_failures == 0
            assert registry.counter(
                "storage.corruption.pages").value == before
            assert reopened.text == "ACGTACGTTGCA"
            reopened.close()
        finally:
            registry.disable()

    def test_corrupt_metadata_slot_still_counts(self, tmp_path):
        path = str(tmp_path / "twice.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path) as dsk:
            dsk.extend("ACGTACGT")
            dsk.checkpoint()
            dsk.extend("TTGG")
            dsk.checkpoint()
        # Generation 2 lives in slot 0; flip a byte of its head page.
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reopened = DiskSpineIndex.open(path)
        assert reopened.pagefile.metrics.checksum_failures == 1
        assert reopened.generation == 1
        assert reopened.text == "ACGTACGT"
        reopened.close()


def _make_index(kind, tmp_path):
    if kind == "memory":
        return DiskSpineIndex(alphabet=dna_alphabet())
    path = str(tmp_path / f"{kind}.spine")
    wal_fsync = "always" if kind == "wal" else None
    return DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                          wal_fsync=wal_fsync)


def _wal_size(dsk):
    return os.path.getsize(dsk.wal.path) if dsk.wal is not None else 0


class TestRejectedExtend:
    """A rejected extend mutates nothing, on every configuration."""

    @pytest.mark.parametrize("kind", ["memory", "file", "wal"])
    def test_unencodable_char_is_all_or_nothing(self, kind, tmp_path):
        dsk = _make_index(kind, tmp_path)
        dsk.extend("ACGTA")
        wal_before = _wal_size(dsk)
        with pytest.raises(AlphabetError):
            dsk.extend("ACGXT")
        assert len(dsk) == 5
        assert dsk.text == "ACGTA"
        assert _wal_size(dsk) == wal_before
        dsk.extend("CG")
        assert dsk.text == "ACGTACG"
        assert dsk.find_all("CG") == [1, 5]
        dsk.close()

    @pytest.mark.parametrize("kind", ["memory", "file", "wal"])
    @pytest.mark.parametrize("code", [-1, 4, 9, 300])
    def test_out_of_range_code_is_rejected(self, kind, code, tmp_path):
        dsk = _make_index(kind, tmp_path)
        dsk.extend("ACG")
        wal_before = _wal_size(dsk)
        with pytest.raises(ConstructionError):
            dsk.append_code(code)
        assert len(dsk) == 3
        assert dsk.text == "ACG"
        assert _wal_size(dsk) == wal_before
        dsk.append_code(3)
        assert dsk.text == "ACGT"
        dsk.close()


def _repeat_text(n, seed):
    base = generate_dna(n // 2, seed=seed, repeat_fraction=0.6)
    return (base + derive_sequence(base, seed=seed + 1))[:n]


def _structural_texts():
    rng = random.Random(151)
    texts = []
    for _ in range(8):
        syms = "ACGT"[:rng.choice([2, 3, 4])]
        texts.append("".join(rng.choice(syms)
                             for _ in range(rng.randint(1, 160))))
    texts += ["A" * 150, "AC" * 80, _repeat_text(400, 152)]
    return texts


def _ragged(text, rng):
    """Split ``text`` into chunks of 1..17 characters."""
    chunks = []
    i = 0
    while i < len(text):
        size = rng.choice([1, 1, 2, 3, 7, 17])
        chunks.append(text[i:i + size])
        i += size
    return chunks


def assert_same_structure(dsk, mem):
    """Every node's link, ribs and extrib chains equal the memory
    index's."""
    assert len(dsk) == len(mem)
    assert dsk.rib_count == len(mem._ribs)
    assert dsk.text == mem.text
    for i in range(len(mem) + 1):
        if i:
            assert dsk.link(i) == mem.link(i), i
        ribs = mem.ribs_at(i)
        assert dsk.ribs_at(i) == ribs, i
        for code in ribs:
            assert list(dsk.extrib_chain(i, code)) == \
                list(mem.extrib_chain(i, code)), (i, code)


TINY_POOL = dict(buffer_pages=4, page_size=256)


def _page_bytes(path, page):
    size = TINY_POOL["page_size"]
    with open(path, "rb") as handle:
        handle.seek(page * size)
        return handle.read(size)


class TestStructuralDifferential:
    """Construction builds exactly the reference index's links, ribs
    and extrib chains, whatever the chunking and durability path."""

    @pytest.mark.parametrize("text", _structural_texts(),
                             ids=lambda t: f"{t[:6]}-{len(t)}")
    def test_ragged_chunks(self, text):
        mem = SpineIndex(text, alphabet=dna_alphabet())
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), **TINY_POOL)
        for chunk in _ragged(text, random.Random(len(text))):
            dsk.extend(chunk)
        assert_same_structure(dsk, mem)
        dsk.close()

    @pytest.mark.parametrize("text", _structural_texts(),
                             ids=lambda t: f"{t[:6]}-{len(t)}")
    def test_checkpoint_open_extend(self, text, tmp_path):
        """The tail link is re-read after open, and committed CL pages
        are shadowed by the bulk label write."""
        path = str(tmp_path / "ck.spine")
        cut = len(text) // 2
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            wal_fsync="off", **TINY_POOL) as dsk:
            dsk.extend(text[:cut // 2])
            dsk.checkpoint()
            dsk.extend(text[cut // 2:cut])
            dsk.checkpoint()
        reopened = DiskSpineIndex.open(path, wal_fsync="off",
                                       **TINY_POOL)
        committed = {page: _page_bytes(path, page)
                     for page in reopened._live_pages()}
        for chunk in _ragged(text[cut:], random.Random(cut)):
            reopened.extend(chunk)
        reopened.flush()
        # Copy-on-write: the recovered generation's pages are intact.
        for page, image in committed.items():
            assert _page_bytes(path, page) == image, page
        assert_same_structure(reopened,
                              SpineIndex(text, alphabet=dna_alphabet()))
        reopened.close()

    @pytest.mark.parametrize("text", _structural_texts(),
                             ids=lambda t: f"{t[:6]}-{len(t)}")
    def test_crash_replay(self, text, tmp_path):
        """WAL replay appends each record through the bulk path."""
        path = str(tmp_path / "crash.spine")
        cut = len(text) // 3
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                             wal_fsync="off", **TINY_POOL)
        dsk.extend(text[:cut])
        dsk.checkpoint()
        for chunk in _ragged(text[cut:], random.Random(cut)):
            dsk.extend(chunk)
        dsk.wal.sync()
        dsk.crash()
        reopened = DiskSpineIndex.open(path, wal_fsync="off",
                                       **TINY_POOL)
        assert reopened.generation == 1
        assert_same_structure(reopened,
                              SpineIndex(text, alphabet=dna_alphabet()))
        reopened.close()


class TestConstructionPageTraffic:
    """Hardware-free bound on construction page touches: the label test
    comes first, each chain node costs one LT entry and at most one RT
    row read, the tail link is carried in memory, and labels land with
    one CL write per page."""

    def test_page_touches_per_char(self):
        text = generate_dna(20000, seed=5)
        dsk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=16)
        for i in range(0, len(text), 1000):
            dsk.extend(text[i:i + 1000])
        metrics = dsk.pagefile.metrics
        lookups = metrics.buffer_hits + metrics.buffer_misses
        assert lookups / len(text) <= 6.0
        assert metrics.reads / len(text) < 1.0
        dsk.close()
