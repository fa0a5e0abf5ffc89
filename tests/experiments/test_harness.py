"""Experiment harness tests at tiny scales (smoke + shape)."""

import os
import subprocess
import sys

import pytest

from repro.experiments import (
    ExperimentResult, experiment_ids, format_table, run_experiment)

TINY = 400       # chars per paper-Mbp for smoke runs
TINY_DISK = 150


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in ("table2", "table3", "table4", "table5",
                         "table6", "table7", "fig6", "fig7", "fig8",
                         "proteins", "space", "ablation-buffer",
                         "ablation-st-layout"):
            assert required in ids

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 3.0)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text

    def test_result_format_includes_paper_rows(self):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=["h"], rows=[(1,)],
            paper_headers=["h"], paper_rows=[(2,)], notes="n")
        out = result.format()
        assert "Paper reports:" in out
        assert "Notes: n" in out


class TestSmokeRuns:
    """Every experiment must run end to end at toy scale."""

    def test_table2(self):
        result = run_experiment("table2", scale=TINY, genomes=["ECO"])
        assert result.rows[-1][-1] == pytest.approx(48.25)

    def test_table3(self):
        result = run_experiment("table3", scale=TINY, genomes=["ECO"])
        assert result.data["two_byte_fit"]

    def test_table4(self):
        result = run_experiment("table4", scale=TINY, genomes=["ECO"])
        assert len(result.rows) == 1

    def test_fig8(self):
        result = run_experiment("fig8", scale=TINY, genomes=["ECO"],
                                bins=6)
        assert len(result.data["series"]["ECO"]) == 6

    def test_table6(self):
        result = run_experiment("table6", scale=TINY,
                                pairs=[("CEL", "ECO")])
        assert result.rows[0][4] > 0

    def test_table5(self):
        result = run_experiment("table5", scale=TINY,
                                pairs=[("ECO", "CEL")], min_length=8)
        assert len(result.rows) == 1

    def test_fig7(self):
        result = run_experiment("fig7", scale=TINY_DISK,
                                genomes=["ECO"])
        assert len(result.rows) == 1

    def test_table7(self):
        result = run_experiment("table7", scale=TINY_DISK,
                                pairs=[("CEL", "ECO")])
        assert len(result.rows) == 1

    def test_proteins(self):
        result = run_experiment("proteins", scale=TINY,
                                proteomes=["ECO-R"])
        assert len(result.rows) == 1

    def test_space(self):
        result = run_experiment("space", scale=TINY)
        assert len(result.rows) == 5

    def test_fig6(self):
        result = run_experiment("fig6", scale=TINY,
                                genomes=["ECO", "HC19"])
        assert result.data["spine_completes"]

    def test_ablation(self):
        result = run_experiment("ablation-buffer", scale=TINY_DISK,
                                buffer_sizes=[8])
        assert len(result.rows) == 3


class TestWorkloads:
    def test_genome_pair_homology(self):
        from repro.core import SpineIndex, matching_statistics
        from repro.experiments.workloads import genome_pair

        data, query = genome_pair("ECO", "CEL", 400)
        plain_query = __import__(
            "repro.sequences", fromlist=["load_corpus_sequence"]
        ).load_corpus_sequence("CEL", scale=400)
        index = SpineIndex(data)
        with_hom = max(matching_statistics(index, query).lengths)
        without = max(matching_statistics(index, plain_query).lengths)
        # Planted homologous segments produce much deeper matches than
        # the independent sequence shows by chance.
        assert with_hom > without

    def test_genome_pair_independent_of_hash_seed(self):
        # Python salts string hashes per process; two processes with
        # different salts must still build the same pair.
        import repro

        code = ("import hashlib\n"
                "from repro.experiments.workloads import genome_pair\n"
                "data, query = genome_pair('ECO', 'CEL', 200)\n"
                "print(hashlib.sha256(f'{data}|{query}'.encode())"
                ".hexdigest())\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = set()
        for salt in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=salt,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_genome_pair_cached(self):
        from repro.experiments.workloads import genome_pair

        assert genome_pair("ECO", "CEL", 400) is \
            genome_pair("ECO", "CEL", 400)

    def test_effective_scale_env(self, monkeypatch):
        from repro.experiments.workloads import effective_scale

        assert effective_scale(100) == 100
        assert effective_scale(100, scale=7) == 7
        monkeypatch.setenv("REPRO_SCALE_FACTOR", "2")
        assert effective_scale(100) == 200

    def test_memory_budget_scales(self):
        from repro.experiments.workloads import memory_budget_bytes

        assert memory_budget_bytes(1_000_000) == pytest.approx(1 << 30)
        assert memory_budget_bytes(500_000) == pytest.approx(
            (1 << 30) / 2)


class TestChartsAndCsv:
    def test_bar_chart_rendering(self):
        from repro.experiments.report import format_bar_chart

        chart = format_bar_chart([("a", 10.0), ("b", 5.0), ("c", "OOM")],
                                 width=20, unit=" s")
        lines = chart.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10
        assert "!" in lines[2] and "OOM" in lines[2]

    def test_csv_rendering(self):
        from repro.experiments.report import to_csv

        csv = to_csv(["a", "b"], [(1, 'x,"y"'), (2.5, "plain")])
        assert csv.splitlines()[0] == "a,b"
        assert '"x,""y"""' in csv
        assert "2.50,plain" in csv

    def test_fig8_has_chart(self):
        result = run_experiment("fig8", scale=TINY, genomes=["ECO"],
                                bins=6)
        assert "bin 0" in result.chart()
        assert "bin 0" in result.format()

    def test_table_experiments_have_no_chart(self):
        result = run_experiment("table3", scale=TINY, genomes=["ECO"])
        assert result.chart() == ""

    def test_result_csv(self):
        result = run_experiment("table3", scale=TINY, genomes=["ECO"])
        csv = result.csv()
        assert csv.startswith("Genome,Length,")
        assert "ECO," in csv

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        rc = main(["table3", "--csv", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table3.csv").exists()

    def test_cli_csv_missing_dir(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--csv"]) == 2


class TestSummary:
    def test_summary_runs_and_holds(self):
        result = run_experiment("summary", scale=TINY)
        # At toy scale some timing-based checks may flap; the harness
        # requirement is that every experiment runs and reports a
        # verdict for each artifact.
        assert len(result.rows) == 13
        assert {row[2] for row in result.rows} <= {"HOLDS", "VIOLATED"}
