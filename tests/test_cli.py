import json
import os
from pathlib import Path

import pytest

from castnet import cli
from castnet.graphio import load_cache, save_cache
from castnet.graph import CoGraph


def run(*argv: str) -> int:
    return cli.main(list(argv))


@pytest.fixture
def pipeline_dir(tmp_path, catalog_csv) -> Path:
    out = tmp_path / "out"
    assert run("ingest", "--source", "netflix", "--input", str(catalog_csv),
               "--out", str(out)) == 0
    assert run("build", "--records", str(out / "records.jsonl"), "--out", str(out)) == 0
    return out


class TestPipeline:
    def test_ingest_outputs(self, pipeline_dir):
        records = (pipeline_dir / "records.jsonl").read_text().splitlines()
        assert len(records) == 39
        report = json.loads((pipeline_dir / "run_report.json").read_text())
        assert report["command"] == "build"

    def test_stats(self, pipeline_dir, tmp_path):
        out = tmp_path / "stats"
        assert run("stats", "--records", str(pipeline_dir / "records.jsonl"),
                   "--out", str(out)) == 0
        assert (out / "summary.json").exists()
        assert (out / "per_year.csv").exists()

    def test_centrality_csv_sorted(self, pipeline_dir, tmp_path):
        out = tmp_path / "cent"
        assert run("centrality", "degree", "--graph", str(pipeline_dir / "graph.bin"),
                   "--out", str(out)) == 0
        lines = (out / "centrality_degree.csv").read_text().splitlines()
        assert lines[0] == "name,score"
        scores = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_eigenvector_report_params(self, pipeline_dir, tmp_path):
        out = tmp_path / "eig"
        assert run("centrality", "eigenvector", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        payload = json.loads((out / "centrality_eigenvector.json").read_text())
        assert payload["params"]["converged"] is True
        assert "lambda" in payload["params"]

    def test_path_zero_length(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "p"
        code = run("path", "Bridge Actor", "Bridge Actor",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out))
        assert code == 0
        payload = json.loads((out / "path.json").read_text())
        assert payload["reachable"] is True and payload["length"] == 0

    def test_path_between_clusters(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "p2"
        code = run("path", "Us ActorA", "In ActorA",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out.strip()
        assert "—[" in text and text.startswith("Us ActorA")

    def test_partners(self, pipeline_dir, tmp_path):
        out = tmp_path / "pr"
        assert run("partners", "--top", "5", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        lines = (out / "partners.csv").read_text().splitlines()
        assert lines[0] == "actor_a,actor_b,shared_titles"
        assert len(lines) == 6

    def test_predict_empty_on_no_candidates(self, tmp_path, two_triangles):
        graph_path = tmp_path / "tri.bin"
        save_cache(graph_path, two_triangles)
        out = tmp_path / "pred"
        code = run("predict", "jaccard", "--top", "5",
                   "--graph", str(graph_path), "--out", str(out))
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines == ["actor_a,actor_b,method,score"]

    def test_communities_and_clusters(self, pipeline_dir, tmp_path):
        out = tmp_path / "comm"
        assert run("communities", "--graph", str(pipeline_dir / "graph.bin"),
                   "--out", str(out)) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["communities"] >= 2
        assert run("clusters", "--tau", "0.05", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        payload = json.loads((out / "clusters.json").read_text())
        assert len(payload["clusters"]) >= 2

    def test_cluster_label_overrides(self, pipeline_dir, tmp_path):
        out = tmp_path / "lab"
        overrides = tmp_path / "labels.json"
        overrides.write_text(json.dumps({"0": "Renamed"}))
        assert run("clusters", "--tau", "0.05", "--labels", str(overrides),
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        payload = json.loads((out / "clusters.json").read_text())
        assert payload["clusters"][0]["label"] == "Renamed"

    def test_crossover(self, pipeline_dir, tmp_path):
        out = tmp_path / "cx"
        assert run("crossover", "--graph", str(pipeline_dir / "graph.bin"),
                   "--out", str(out)) == 0
        lines = (out / "crossover.csv").read_text().splitlines()
        assert lines[1].startswith("Bridge Actor,")  # the designed crossover actor

    def test_evolve(self, pipeline_dir, tmp_path):
        out = tmp_path / "ev"
        assert run("evolve", "--window", "4", "--step", "2",
                   "--records", str(pipeline_dir / "records.jsonl"),
                   "--out", str(out)) == 0
        payload = json.loads((out / "evolution.json").read_text())
        assert len(payload["windows"]) >= 2
        assert len(payload["matches"]) == len(payload["windows"]) - 1

    def test_export_formats(self, pipeline_dir, tmp_path):
        out = tmp_path / "exp"
        assert run("export", "--format", "dot", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        assert run("export", "--format", "graphml", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        assert (out / "graph.dot").exists() and (out / "graph.graphml").exists()

    def test_cache_round_trip_equality(self, pipeline_dir):
        g = load_cache(pipeline_dir / "graph.bin")
        assert isinstance(g, CoGraph)
        resaved = pipeline_dir / "resaved.bin"
        save_cache(resaved, g)
        assert (pipeline_dir / "graph.bin").read_bytes() == resaved.read_bytes()

    def test_build_without_titles(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "nt"
        assert run("build", "--records", str(pipeline_dir / "records.jsonl"),
                   "--no-titles", "--out", str(out)) == 0
        g = load_cache(out / "graph.bin")
        assert g.edge_titles is None
        assert (out / "graph.bin").stat().st_size < (pipeline_dir / "graph.bin").stat().st_size
        # paths still work, hops just carry no title annotations
        assert run("path", "Us ActorA", "Us ActorB",
                   "--graph", str(out / "graph.bin"), "--out", str(out)) in (0, 1)

    def test_thread_flag_does_not_change_results(self, pipeline_dir, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert run("centrality", "betweenness", "--threads", threads,
                       "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
            outs.append((out / "centrality_betweenness.csv").read_bytes())
        assert outs[0] == outs[1]


class TestImdbPipeline:
    @pytest.fixture
    def imdb_dir(self, tmp_path) -> Path:
        d = tmp_path / "imdb"
        d.mkdir()
        (d / "title.basics.tsv").write_text(
            "tconst\ttitleType\tprimaryTitle\toriginalTitle\tisAdult\tstartYear\tendYear\truntimeMinutes\tgenres\n"
            "tt1\tmovie\tShared Film\tShared Film\t0\t1990\t\\N\t100\tDrama\n"
            "tt2\tmovie\tSecond Film\tSecond Film\t0\t1995\t\\N\t90\tDrama\n"
            "tt3\ttvEpisode\tNoise\tNoise\t0\t1995\t\\N\t30\tDrama\n"
        )
        (d / "title.principals.tsv").write_text(
            "tconst\tordering\tnconst\tcategory\tjob\tcharacters\n"
            "tt1\t1\tnm1\tactor\t\\N\t\\N\n"
            "tt1\t2\tnm2\tactress\t\\N\t\\N\n"
            "tt2\t1\tnm2\tactress\t\\N\t\\N\n"
            "tt2\t2\tnm3\tactor\t\\N\t\\N\n"
            "tt2\t3\tnm4\tdirector\t\\N\t\\N\n"
        )
        (d / "name.basics.tsv").write_text(
            "nconst\tprimaryName\tbirthYear\tdeathYear\tprimaryProfession\tknownForTitles\n"
            "nm1\tLead One\t1950\t\\N\tactor\ttt1\n"
            "nm2\tLead Two\t1960\t\\N\tactress\ttt1\n"
            "nm3\tLead Three\t1970\t\\N\tactor\ttt2\n"
            "nm4\tHelmer Four\t1940\t\\N\tdirector\ttt2\n"
        )
        return d

    def test_imdb_ingest_build_path(self, imdb_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(
            "ingest", "--source", "imdb",
            "--basics", str(imdb_dir / "title.basics.tsv"),
            "--principals", str(imdb_dir / "title.principals.tsv"),
            "--names", str(imdb_dir / "name.basics.tsv"),
            "--out", str(out),
        ) == 0
        assert (out / "persons.jsonl").exists()
        assert run(
            "build", "--records", str(out / "records.jsonl"),
            "--persons", str(out / "persons.jsonl"), "--out", str(out),
        ) == 0
        # graph labels are display names, so path queries work by name
        assert run(
            "path", "Lead One", "Lead Three",
            "--graph", str(out / "graph.bin"), "--out", str(out),
        ) == 0
        text = capsys.readouterr().out.strip()
        assert text == "Lead One —[Shared Film]→ Lead Two —[Second Film]→ Lead Three"


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run("frobnicate")
        assert err.value.code == 2

    def test_usage_error_missing_required(self, tmp_path):
        assert run("build", "--out", str(tmp_path)) == 2

    def test_negative_threads_rejected_at_parser(self, pipeline_dir, tmp_path, capsys):
        capsys.readouterr()  # drop the fixture's own diagnostics
        with pytest.raises(SystemExit) as err:
            run("centrality", "closeness", "--threads", "-1",
                "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path))
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and "--threads" in stderr
        assert not (tmp_path / "centrality_closeness.csv").exists()

    def test_negative_threads_rejected_in_config(self, pipeline_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("threads = -1\n", encoding="utf-8")
        capsys.readouterr()
        code = run("centrality", "closeness", "--config", str(conf),
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path))
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_zero_threads_means_all_cores(self, pipeline_dir, tmp_path):
        assert run("centrality", "closeness", "--threads", "0",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        assert (tmp_path / "centrality_closeness.csv").exists()

    def test_data_error_missing_file(self, tmp_path):
        code = run("ingest", "--source", "netflix", "--input",
                   str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == 1

    def test_data_error_bad_cache(self, tmp_path):
        bogus = tmp_path / "bad.bin"
        bogus.write_bytes(b"garbage!")
        assert run("centrality", "degree", "--graph", str(bogus),
                   "--out", str(tmp_path)) == 1

    def test_unknown_actor_is_data_error(self, pipeline_dir, tmp_path):
        code = run("path", "Us ActorA", "No Such Person",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path))
        assert code == 1

    def test_ambiguous_actor_suggests_candidates(self, tmp_path, capsys):
        from castnet.graph import build_bipartite, project
        from castnet.ingest import TitleKind, TitleRecord

        records = [
            TitleRecord("t1", "Film", TitleKind.MOVIE, 2000, (), ("nm1", "nm2")),
        ]
        g = project(build_bipartite(
            records, names={"nm1": "Same Name", "nm2": "Same Name"}
        ))
        graph_path = tmp_path / "dup.bin"
        save_cache(graph_path, g)
        code = run("path", "Same Name", "Same Name [nm2]",
                   "--graph", str(graph_path), "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "Same Name [nm1]" in err and "Same Name [nm2]" in err


class TestConfig:
    def test_config_file_drives_run(self, tmp_path, catalog_csv):
        out = tmp_path / "out"
        config = tmp_path / "run.conf"
        config.write_text(
            f"source = netflix\n"
            f"input = {catalog_csv}\n"
            f"out = {out}\n"
            f"seed = 7  # trailing comment\n"
        )
        assert run("ingest", "--config", str(config)) == 0
        assert (out / "records.jsonl").exists()

    def test_cli_overrides_config(self, tmp_path, catalog_csv):
        config = tmp_path / "run.conf"
        config.write_text(f"source = netflix\ninput = {catalog_csv}\nout = {tmp_path}/a\n")
        out_b = tmp_path / "b"
        assert run("ingest", "--config", str(config), "--out", str(out_b)) == 0
        assert (out_b / "records.jsonl").exists()
        assert not (tmp_path / "a").exists()

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("nonsense = 1\n")
        assert run("ingest", "--config", str(config)) == 2

    def test_data_dir_env(self, tmp_path, catalog_csv, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(catalog_csv.parent))
        out = tmp_path / "envout"
        assert run("ingest", "--source", "netflix", "--input", catalog_csv.name,
                   "--out", str(out)) == 0
        assert (out / "records.jsonl").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, catalog_csv):
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert run("ingest", "--source", "netflix", "--input", str(catalog_csv),
                       "--out", str(out)) == 0
            assert run("build", "--records", str(out / "records.jsonl"),
                       "--out", str(out)) == 0
            assert run("stats", "--records", str(out / "records.jsonl"),
                       "--out", str(out)) == 0
            for measure in ("degree", "betweenness", "closeness", "eigenvector"):
                assert run("centrality", measure, "--graph", str(out / "graph.bin"),
                           "--out", str(out)) == 0
            assert run("communities", "--graph", str(out / "graph.bin"),
                       "--out", str(out)) == 0
            assert run("clusters", "--tau", "0.02", "--graph", str(out / "graph.bin"),
                       "--out", str(out)) == 0
            trees.append(out)
        first, second = trees
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
