import codecs
import csv
import gzip
import json
import os
import re
from decimal import Decimal
from pathlib import Path

import pytest

from castnet import cli
from castnet.graphio import load_cache, save_cache
from castnet.graph import CoGraph
from conftest import graph_of


def run(*argv: str) -> int:
    return cli.main(list(argv))


@pytest.fixture
def pipeline_dir(tmp_path, catalog_csv) -> Path:
    out = tmp_path / "out"
    assert run("ingest", "--source", "netflix", "--input", str(catalog_csv),
               "--out", str(out)) == 0
    assert run("build", "--records", str(out / "records.jsonl"), "--out", str(out)) == 0
    return out


# The solver settings each measure's JSON records, in order.
CENTRALITY_PARAMS = {
    "degree": [],
    "betweenness": ["algorithm", "pairs"],
    "closeness": ["scaling"],
    "eigenvector": ["tol", "max_iter", "iterations", "converged", "lambda"],
}


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

    @pytest.mark.parametrize("measure", sorted(CENTRALITY_PARAMS))
    def test_centrality_json_names_measure_and_params(self, pipeline_dir, tmp_path, measure):
        out = tmp_path / measure
        assert run("centrality", measure, "--graph", str(pipeline_dir / "graph.bin"),
                   "--out", str(out)) == 0
        payload = json.loads((out / f"centrality_{measure}.json").read_text())
        assert list(payload) == ["measure", "params"]
        assert payload["measure"] == measure
        assert list(payload["params"]) == CENTRALITY_PARAMS[measure]

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

    def test_predictions_json_holds_the_method_and_flags(self, pipeline_dir, tmp_path):
        out = tmp_path / "pred"
        assert run("predict", "preferential_attachment", "--top", "3", "--min-common", "0",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        payload = json.loads((out / "predictions.json").read_text())
        assert payload == {"method": "preferential_attachment", "top": 3, "min_common": 0}
        assert list(payload) == ["method", "top", "min_common"]
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "actor_a,actor_b,method,score" and len(lines) == 4

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

    def test_echoed_flags_rounded_to_6_digits(self, pipeline_dir, tmp_path):
        assert run("clusters", "--tau", "0.0123456789", "--graph",
                   str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        assert '"tau": 0.0123457\n' in (tmp_path / "run_report.json").read_text()

    def test_cluster_label_overrides(self, pipeline_dir, tmp_path):
        out = tmp_path / "lab"
        overrides = tmp_path / "labels.json"
        overrides.write_text(json.dumps({"0": "Renamed"}))
        assert run("clusters", "--tau", "0.05", "--labels", str(overrides),
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
        payload = json.loads((out / "clusters.json").read_text())
        assert payload["clusters"][0]["label"] == "Renamed"

    def test_cluster_label_file_may_start_with_a_bom(self, pipeline_dir, tmp_path):
        overrides = tmp_path / "labels.json"
        overrides.write_text('\ufeff{"0": "Renamed"}', encoding="utf-8")
        assert run("clusters", "--tau", "0.05", "--labels", str(overrides),
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "clusters.json").read_text())
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

    def test_evolve_builds_the_catalog_graph_once(self, pipeline_dir, tmp_path, monkeypatch):
        from castnet import graph

        calls = []
        build = graph.build_bipartite

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return build(*args, **kwargs)

        monkeypatch.setattr(graph, "build_bipartite", counting)
        assert run("evolve", "--window", "2", "--step", "1",
                   "--records", str(pipeline_dir / "records.jsonl"),
                   "--out", str(tmp_path / "ev")) == 0
        assert calls == [{"names": None}]

    def test_evolve_on_only_oversize_titles_exits_1(self, tmp_path, capsys):
        from castnet.ingest import TitleKind, TitleRecord, write_records_jsonl

        cast = tuple(f"P{i}" for i in range(501))
        records = tmp_path / "records.jsonl"
        write_records_jsonl(records, [TitleRecord("t1", "Epic", TitleKind.MOVIE, 2000, (), cast)])
        capsys.readouterr()
        assert run("evolve", "--window", "5", "--step", "5", "--records", str(records),
                   "--out", str(tmp_path / "ev")) == 1
        assert capsys.readouterr().err == "error: no titles survive the configured filters\n"

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

    @pytest.mark.parametrize("argv, loads", [
        (("ingest", "--source", "netflix", "--input", "CATALOG"), (0, 0, 0)),
        (("build", "--records", "RECORDS"), (0, 1, 0)),
        (("build", "--records", "RECORDS", "--persons", "PERSONS"), (0, 1, 1)),
        (("stats", "--records", "RECORDS"), (0, 1, 0)),
        (("stats", "--records", "RECORDS", "--persons", "PERSONS"), (0, 1, 1)),
        (("evolve", "--window", "4", "--step", "2", "--records", "RECORDS"), (0, 1, 0)),
        (("evolve", "--window", "4", "--step", "2", "--records", "RECORDS",
          "--persons", "PERSONS"), (0, 1, 1)),
        (("centrality", "eigenvector", "--graph", "GRAPH"), (1, 0, 0)),
        (("path", "Us ActorA", "In ActorA", "--graph", "GRAPH"), (1, 0, 0)),
        (("partners", "--top", "3", "--graph", "GRAPH"), (1, 0, 0)),
        (("predict", "jaccard", "--top", "3", "--graph", "GRAPH"), (1, 0, 0)),
        (("communities", "--graph", "GRAPH"), (1, 0, 0)),
        (("clusters", "--tau", "0.05", "--graph", "GRAPH"), (1, 0, 0)),
        (("crossover", "--graph", "GRAPH"), (1, 0, 0)),
        (("export", "--format", "dot", "--graph", "GRAPH"), (1, 0, 0)),
    ], ids=["ingest", "build", "build-persons", "stats", "stats-persons", "evolve",
            "evolve-persons", "centrality", "path", "partners", "predict", "communities",
            "clusters", "crossover", "export"])
    def test_each_command_reads_each_declared_input_once(self, pipeline_dir, catalog_csv,
                                                          tmp_path, monkeypatch, argv, loads):
        """(graph cache, records, persons) loads; ``ingest`` reads only raw catalogs."""
        from castnet import graphio, ingest

        persons = tmp_path / "persons.jsonl"
        persons.write_text('{"person_id": "Us ActorA", "name": "Ann"}\n', encoding="utf-8")
        paths = {"CATALOG": catalog_csv, "GRAPH": pipeline_dir / "graph.bin",
                 "RECORDS": pipeline_dir / "records.jsonl", "PERSONS": persons}
        loaders = ((graphio, "load_cache"), (ingest, "read_records_jsonl"),
                   (ingest, "read_persons_jsonl"))
        calls = dict.fromkeys((name for _, name in loaders), 0)

        def counted(name, fn):
            def loader(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return loader

        for module, name in loaders:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        argv = [str(paths.get(a, a)) for a in argv]
        assert run(*argv, "--out", str(tmp_path / "out")) == 0
        assert tuple(calls.values()) == loads

    @pytest.mark.parametrize("argv", [
        ("ingest", "--source", "netflix", "--input", "CATALOG"),
        ("ingest", "--source", "imdb", "--basics", "BASICS", "--principals", "PRINCIPALS",
         "--names", "NAMES"),
        ("build", "--records", "RECORDS"),
        ("stats", "--records", "RECORDS"),
        ("evolve", "--window", "4", "--step", "2", "--records", "RECORDS"),
        *(("centrality", measure, "--graph", "GRAPH") for measure in CENTRALITY_PARAMS),
        ("path", "Us ActorA", "In ActorA", "--graph", "GRAPH"),
        ("partners", "--top", "3", "--graph", "GRAPH"),
        ("predict", "jaccard", "--top", "3", "--graph", "GRAPH"),
        ("communities", "--graph", "GRAPH"),
        ("clusters", "--tau", "0.05", "--graph", "GRAPH"),
        ("crossover", "--graph", "GRAPH"),
        ("export", "--format", "dot", "--graph", "GRAPH"),
        ("export", "--format", "graphml", "--graph", "GRAPH"),
    ], ids=["ingest-netflix", "ingest-imdb", "build", "stats", "evolve",
            *(f"centrality-{measure}" for measure in CENTRALITY_PARAMS), "path", "partners",
            "predict", "communities", "clusters", "crossover", "export-dot", "export-graphml"])
    def test_report_outputs_are_the_files_written(self, pipeline_dir, catalog_csv, tmp_path,
                                                  argv):
        dumps = {
            "BASICS": "tconst\ttitleType\tprimaryTitle\tstartYear\ntt1\tmovie\tFirst\t1990\n",
            "PRINCIPALS": "tconst\tordering\tnconst\tcategory\ntt1\t1\tnm1\tactor\n",
            "NAMES": "nconst\tprimaryName\nnm1\tLead One\n",
        }
        for key, text in dumps.items():
            (tmp_path / key).write_text(text, encoding="utf-8")
        paths = {"CATALOG": catalog_csv, "GRAPH": pipeline_dir / "graph.bin",
                 "RECORDS": pipeline_dir / "records.jsonl", **{k: tmp_path / k for k in dumps}}
        out = tmp_path / "run"  # a fresh directory: pipeline_dir is tmp_path / "out"
        assert run(*(str(paths.get(a, a)) for a in argv), "--out", str(out)) == 0
        outputs = json.loads((out / "run_report.json").read_text())["outputs"]
        # A directory lists each name once, so equal sorted lists also rule out repeats.
        assert sorted(outputs) == sorted(set(os.listdir(out)) - {"run_report.json"})

    @pytest.mark.parametrize("kind, kept, counters", [
        (None, ["s1", "s2"], {}),
        ("movie", ["s1"], {"filtered": 1}),
        ("tv_show", ["s2"], {"filtered": 1}),
    ])
    def test_netflix_kind_filter(self, tmp_path, kind, kept, counters):
        catalog = tmp_path / "two.csv"
        catalog.write_text("show_id,type,title,director,cast,release_year\n"
                           "s1,Movie,A Film,,Ann,2000\n"
                           "s2,TV Show,A Show,,Bob,2001\n", encoding="utf-8")
        out = tmp_path / "out"
        flags = ("--kind", kind) if kind else ()
        assert run("ingest", "--input", str(catalog), *flags, "--out", str(out)) == 0
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["title_id"] for line in lines] == kept
        report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
        assert report["rows"] == 2 and report["counters"] == counters

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

    def test_stats_names_actors_as_the_graph_labels_them(self, tmp_path):
        """With ``--persons``, ``top_actors.csv`` lists each actor by the
        label an unfiltered ``build`` gives them, namesakes included;
        without it, by nconst."""
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / "title.basics.tsv").write_text(
            "tconst\ttitleType\tprimaryTitle\tstartYear\n"
            "tt1\tmovie\tFirst\t1990\ntt2\tmovie\tSecond\t1995\n"
        )
        (dumps / "title.principals.tsv").write_text(
            "tconst\tordering\tnconst\tcategory\n"
            "tt1\t1\tnm1\tactor\ntt1\t2\tnm2\tactress\n"
            "tt2\t1\tnm3\tactor\ntt2\t2\tnm2\tactress\n"
        )
        (dumps / "name.basics.tsv").write_text(
            "nconst\tprimaryName\nnm1\tSame Name\nnm2\tOther\nnm3\tSame Name\n"
        )
        out = tmp_path / "out"
        assert run("ingest", "--source", "imdb",
                   "--basics", str(dumps / "title.basics.tsv"),
                   "--principals", str(dumps / "title.principals.tsv"),
                   "--names", str(dumps / "name.basics.tsv"), "--out", str(out)) == 0
        records = ("--records", str(out / "records.jsonl"))
        persons = ("--persons", str(out / "persons.jsonl"))
        assert run("build", *records, *persons, "--out", str(out)) == 0
        assert run("stats", *records, *persons, "--out", str(out / "named")) == 0
        assert run("stats", *records, "--out", str(out / "keyed")) == 0
        named = (out / "named" / "top_actors.csv").read_text().splitlines()
        assert named == ["name,count", "Other,2", "Same Name [nm1],1", "Same Name [nm3],1"]
        labels = load_cache(out / "graph.bin").labels
        assert sorted(labels) == sorted(line.rsplit(",", 1)[0] for line in named[1:])
        keyed = (out / "keyed" / "top_actors.csv").read_text().splitlines()
        assert keyed == ["name,count", "nm2,2", "nm1,1", "nm3,1"]

    # nm5 both directs and acts; tt10's director row comes before its cast
    # rows, whose orderings are out of order; tt2 has a \N year and a
    # reference to an unknown person; tt999 is an unknown title.
    PINNED_DUMPS = {
        "title.basics.tsv": (
            "tconst\ttitleType\tprimaryTitle\toriginalTitle\tisAdult\tstartYear\tendYear\t"
            "runtimeMinutes\tgenres\n"
            "tt10\tmovie\tNight Film\tNight Film\t0\t1999\t\\N\t100\tDrama\n"
            "tt2\tmovie\tDay Film\tDay Film\t0\t\\N\t\\N\t90\tDrama\n"
            "tt3\ttvEpisode\tEp\tEp\t0\t2001\t\\N\t30\tDrama\n"
            "tt4\ttvSeries\tShow\tShow\t0\t2005\t2007\t30\tDrama\n"
        ),
        "title.principals.tsv": (
            "tconst\tordering\tnconst\tcategory\tjob\tcharacters\n"
            "tt10\t9\tnm7\tdirector\t\\N\t\\N\n"
            "tt10\t3\tnm2\tactress\t\\N\t\\N\n"
            "tt10\t1\tnm1\tactor\t\\N\t\\N\n"
            "tt10\t2\tnm5\tactor\t\\N\t\\N\n"
            "tt2\t1\tnm5\tdirector\t\\N\t\\N\n"
            "tt2\t2\tnm2\tactress\t\\N\t\\N\n"
            "tt2\t1\tnm404\tactor\t\\N\t\\N\n"
            "tt2\t3\tnm1\tproducer\t\\N\t\\N\n"
            "tt999\t1\tnm1\tactor\t\\N\t\\N\n"
            "tt3\t1\tnm1\tactor\t\\N\t\\N\n"
            "tt4\t10\tnm6\tactress\t\\N\t\\N\n"
            "tt4\t2\tnm1\tactor\t\\N\t\\N\n"
        ),
        "name.basics.tsv": (
            "nconst\tprimaryName\tbirthYear\tdeathYear\tprimaryProfession\tknownForTitles\n"
            "nm1\tAnn  Lee\t1950\t\\N\tactor\ttt10\n"
            "nm2\tBob\t1960\t\\N\tactress\ttt10\n"
            "nm5\tCy Dir\t1940\t\\N\tdirector\ttt2\n"
            "nm6\tDee\t1970\t\\N\tactress\ttt4\n"
            "nm7\tEve\t1930\t\\N\tdirector\ttt10\n"
            "nm8\tUnused\t1930\t\\N\tactor\t\\N\n"
        ),
    }

    # A title's cast is resolved before its directors, so Eve follows
    # tt10's cast in persons.jsonl.
    PINNED_OUTPUTS = {
        "records.jsonl": (
            '{"title_id":"tt10","title":"Night Film","kind":"movie","release_year":1999,'
            '"directors":["Eve"],"cast":["nm1","nm5","nm2"],"country":null,'
            '"rating":null,"date_added":null}\n'
            '{"title_id":"tt2","title":"Day Film","kind":"movie","release_year":null,'
            '"directors":["Cy Dir"],"cast":["nm2"],"country":null,'
            '"rating":null,"date_added":null}\n'
            '{"title_id":"tt4","title":"Show","kind":"tv_show","release_year":2005,'
            '"directors":[],"cast":["nm1","nm6"],"country":null,'
            '"rating":null,"date_added":null}\n'
        ),
        "persons.jsonl": (
            '{"person_id":"nm1","name":"Ann Lee"}\n'
            '{"person_id":"nm5","name":"Cy Dir"}\n'
            '{"person_id":"nm2","name":"Bob"}\n'
            '{"person_id":"nm7","name":"Eve"}\n'
            '{"person_id":"nm6","name":"Dee"}\n'
        ),
        "run_report.json": (
            '{\n'
            '  "command": "ingest",\n'
            '  "counters": {\n'
            '    "basics_filtered": 1,\n'
            '    "basics_kept": 3,\n'
            '    "dangling_person_refs": 1,\n'
            '    "names_rows": 6,\n'
            '    "principals_dangling_title": 1,\n'
            '    "principals_rows": 12\n'
            '  },\n'
            '  "outputs": [\n'
            '    "records.jsonl",\n'
            '    "persons.jsonl"\n'
            '  ],\n'
            '  "records": 3,\n'
            '  "rows": 4,\n'
            '  "skipped": [],\n'
            '  "source": "imdb"\n'
            '}\n'
        ),
    }

    def ingest_pinned(self, tmp_path) -> Path:
        """``ingest`` of ``PINNED_DUMPS``; returns its output directory."""
        for name, text in self.PINNED_DUMPS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "ingest", "--source", "imdb",
            "--basics", str(tmp_path / "title.basics.tsv"),
            "--principals", str(tmp_path / "title.principals.tsv"),
            "--names", str(tmp_path / "name.basics.tsv"),
            "--out", str(out),
        ) == 0
        return out

    def test_ingest_output_bytes_pinned(self, tmp_path):
        out = self.ingest_pinned(tmp_path)
        for name, text in self.PINNED_OUTPUTS.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name

    def test_files_with_dropped_fields_build_the_same_graph(self, tmp_path):
        """Lines written before ``language_hint`` and ``roles`` were dropped
        still read, and build the same ``graph.bin`` bytes."""
        new = self.ingest_pinned(tmp_path)
        old = tmp_path / "old"
        old.mkdir()
        records = (new / "records.jsonl").read_text(encoding="utf-8")
        persons = (new / "persons.jsonl").read_text(encoding="utf-8")
        (old / "records.jsonl").write_text(
            records.replace('"rating":', '"language_hint":null,"rating":'), encoding="utf-8")
        (old / "persons.jsonl").write_text(
            persons.replace("}\n", ',"roles":["actor","director"]}\n'), encoding="utf-8")
        for d in (new, old):
            assert run("build", "--records", str(d / "records.jsonl"),
                       "--persons", str(d / "persons.jsonl"), "--out", str(d)) == 0
        assert (old / "records.jsonl").read_text(encoding="utf-8").count("language_hint") == 3
        assert (old / "persons.jsonl").read_text(encoding="utf-8").count('"roles"') == 5
        assert (old / "graph.bin").read_bytes() == (new / "graph.bin").read_bytes()

    def test_stats_writes_an_empty_per_year_added_table(self, tmp_path):
        out = self.ingest_pinned(tmp_path)
        assert run("stats", "--records", str(out / "records.jsonl"), "--out", str(out)) == 0
        assert (out / "per_year_added.csv").read_text(encoding="utf-8") == "year,movies,tv\n"


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_usage_error_missing_required(self, tmp_path):
        assert run("build", "--out", str(tmp_path)) == 2

    def test_negative_threads_rejected_at_parser(self, pipeline_dir, tmp_path, capsys):
        capsys.readouterr()  # drop the fixture's own diagnostics
        assert run("centrality", "closeness", "--threads", "-1",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 2
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

    @pytest.mark.parametrize("flags, affinity, threads", [
        (["--threads", "0"], {0, 2, 5}, 3),  # the usable cores, not the 8 the machine has
        (["--threads", "0"], None, 8),  # no affinity call: every core
        (["--threads", "5"], {0, 2, 5}, 3),  # never more threads than usable cores
        ([], {0, 2, 5}, 1),  # the default
    ], ids=["auto-affinity", "auto-cpu-count", "capped", "default"])
    def test_thread_count_comes_from_the_usable_cores(self, pipeline_dir, tmp_path, monkeypatch,
                                                      flags, affinity, threads):
        from castnet import centrality

        seen = []
        betweenness = centrality.betweenness_centrality

        def recording(graph, threads):
            seen.append(threads)
            return betweenness(graph, threads=threads)

        monkeypatch.setattr(centrality, "betweenness_centrality", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert run("centrality", "betweenness", *flags,
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        assert seen == [threads]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("partners", "--top", "0"), "--top"),
            (("predict", "jaccard", "--top", "0"), "--top"),
            (("clusters", "--tau", "2"), "--tau"),
            (("communities", "--resolution", "-1"), "--resolution"),
            (("stats", "--top", "-1"), "--top"),
            (("clusters", "--tau", "0.05", "--labels", "LABELS"), "--labels"),
            (("clusters", "--tau", "0.05", "--labels", "LABELS_OBJECT"), "--labels"),
            (("clusters", "--tau", "0.05", "--labels", "LABELS_NULL"), "--labels"),
            (("clusters", "--tau", "0.05", "--labels", "LABELS_SURROGATE"), "--labels"),
            (("evolve", "--window", "5", "--step", "0"), "--step"),
            (("evolve", "--window", "3", "--step", "5"), "--window"),
            (("predict", "jaccard", "--top", "5", "--min-common", "0"), "--min-common"),
            (("predict", "adamic_adar", "--top", "5", "--min-common", "0"), "--min-common"),
            (("predict", "jaccard", "--top", "5", "--cap", "-1"), "--cap"),
            (("build", "--max-cast", "0"), "--max-cast"),
            (("build", "--min-cast", "9", "--max-cast", "3"), "--min-cast"),
            (("build", "--year-min", "2001", "--year-max", "2000"), "--year-min"),
            (("stats", "--seed", "3"), "--seed"),
            (("export",), "--format"),
        ],
        ids=["partners-top", "predict-top", "clusters-tau", "communities-resolution",
             "stats-top", "clusters-labels", "clusters-labels-object",
             "clusters-labels-null", "clusters-labels-lone-surrogate",
             "evolve-step", "evolve-window-below-step",
             "predict-min-common-zero", "predict-min-common-zero-not-pa", "predict-cap",
             "build-max-cast", "build-min-cast-above-max", "build-years-reversed",
             "stats-takes-no-seed", "export-format-required"],
    )
    def test_bad_flag_value_exits_2_with_one_line(self, pipeline_dir, tmp_path, capsys,
                                                  argv, flag):
        labels = {"LABELS": '{"0": "unterminated', "LABELS_OBJECT": '{"0": {"x": 1}}',
                  "LABELS_NULL": '{"0": "ok", "1": null}',  # a label must be a string
                  "LABELS_SURROGATE": '{"0": "X\\udc00"}'}  # ... that UTF-8 can carry
        for token, text in labels.items():
            (tmp_path / f"{token}.json").write_text(text, encoding="utf-8")
        argv = [str(tmp_path / f"{a}.json") if a in labels else a for a in argv]
        source = ("--records", str(pipeline_dir / "records.jsonl")) \
            if argv[0] in ("build", "stats", "evolve") \
            else ("--graph", str(pipeline_dir / "graph.bin"))
        out = tmp_path / "rejected"
        capsys.readouterr()
        assert run(*argv, *source, "--out", str(out)) == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and flag in stderr
        assert not out.exists()

    def test_zero_common_preferential_attachment_allowed(self, pipeline_dir, tmp_path):
        assert run("predict", "preferential_attachment", "--top", "3", "--min-common", "0",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        assert len((tmp_path / "predictions.csv").read_text().splitlines()) == 4

    def test_cap_exceeded_is_data_error(self, pipeline_dir, tmp_path, capsys):
        capsys.readouterr()
        assert run("predict", "jaccard", "--top", "3", "--cap", "1",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 1
        assert "exceed cap" in capsys.readouterr().err

    def test_data_error_missing_file(self, tmp_path):
        code = run("ingest", "--source", "netflix", "--input",
                   str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == 1

    def test_data_error_bad_cache(self, tmp_path):
        bogus = tmp_path / "bad.bin"
        bogus.write_bytes(b"garbage!")
        assert run("centrality", "degree", "--graph", str(bogus),
                   "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("command", ["stats-out-is-a-file", "centrality-graph-is-a-dir"])
    def test_os_error_exits_1_with_one_line(self, pipeline_dir, tmp_path, capsys, command):
        if command == "stats-out-is-a-file":
            blocker = tmp_path / "blocker"
            blocker.write_text("", encoding="utf-8")
            argv = ("stats", "--records", str(pipeline_dir / "records.jsonl"),
                    "--out", str(blocker))
        else:
            argv = ("centrality", "degree", "--graph", str(tmp_path), "--out", str(tmp_path))
        capsys.readouterr()
        assert run(*argv) == 1
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")

    # case -> the text that replaces the third line
    LINE_TEXTS = {
        "not-an-object-list": "[1,2]",
        "not-an-object-string": '"x"',
        "not-an-object-null": "null",
        "extra-data": "{} {}",
    }

    # case -> the field of the third record it replaces, and the bad value
    FIELD_VALUES = {
        "unknown-kind": ("kind", "film"),
        "string-year": ("release_year", "2010"),
        "bool-year": ("release_year", True),
        "year-before-min": ("release_year", 1869),
        "year-after-max": ("release_year", 2101),
        "huge-year": ("release_year", 10**30),
        "string-cast": ("cast", "Us ActorA"),
        "number-in-cast": ("cast", ["Us ActorA", 7]),
        "object-directors": ("directors", {"name": "A"}),
        "number-title": ("title", 12),
        "number-country": ("country", 1),
        "lone-surrogate-cast": ("cast", ["A\ud800", "B"]),  # json.dumps writes "A\ud800"
    }

    @pytest.mark.parametrize("case, reason", [
        ("truncated", "not JSON: "),
        ("missing-title", "missing key 'title'"),
        ("unknown-kind", "'film' is not a valid TitleKind"),
        ("persons-not-json", "not JSON: "),
        ("string-year", "'release_year' must be an integer or null, not str"),
        ("bool-year", "'release_year' must be an integer or null, not bool"),
        ("year-before-min", "'release_year' 1869 outside 1870..2100"),
        ("year-after-max", "'release_year' 2101 outside 1870..2100"),
        ("huge-year", f"'release_year' {10**30} outside 1870..2100"),
        ("string-cast", "'cast' must be a list of strings, not str"),
        ("number-in-cast", "'cast' must be a list of strings, not list"),
        ("object-directors", "'directors' must be a list of strings, not dict"),
        ("number-title", "'title' must be a string, not int"),
        ("number-country", "'country' must be a string or null, not int"),
        ("persons-number-name", "'name' must be a string, not int"),
        ("persons-not-utf8", "not UTF-8 text"),
        ("not-an-object-list", "expected a JSON object, not list"),
        ("not-an-object-string", "expected a JSON object, not str"),
        ("not-an-object-null", "expected a JSON object, not NoneType"),
        ("persons-not-an-object", "expected a JSON object, not list"),
        ("extra-data", "not JSON: Extra data (column 4)"),
        ("bom-in-line", "not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (column 1)"),
        ("lone-surrogate-cast", "lone surrogate '\\ud800' in a string"),
        ("persons-lone-surrogate", "lone surrogate '\\ud800' in a string"),
    ])
    def test_malformed_jsonl_exits_1_with_one_line(self, pipeline_dir, catalog_csv,
                                                   tmp_path, capsys, case, reason):
        records = str(pipeline_dir / "records.jsonl")
        lines = Path(records).read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[2])
        if case == "truncated":
            lines[2] = lines[2][: len(lines[2]) // 2]
        elif case == "missing-title":
            del rec["title"]
            lines[2] = json.dumps(rec)
        elif case in self.FIELD_VALUES:
            field, value = self.FIELD_VALUES[case]
            rec[field] = value
            lines[2] = json.dumps(rec)
        elif case in self.LINE_TEXTS:
            lines[2] = self.LINE_TEXTS[case]
        elif case == "bom-in-line":
            lines[2] = "\ufeff" + lines[2]
        if case == "persons-not-json":
            bad, line = catalog_csv, 1
            flags = ["--records", records, "--persons", str(bad)]
            commands = ["build", "evolve"]
        elif case == "persons-number-name":
            bad, line = tmp_path / "persons.jsonl", 2
            people = [{"person_id": "nm1", "name": "A", "roles": ["actor"]},
                      {"person_id": "nm2", "name": 5, "roles": ["actor"]}]
            bad.write_text("".join(json.dumps(p) + "\n" for p in people), encoding="utf-8")
            flags = ["--records", records, "--persons", str(bad)]
            commands = ["build", "evolve"]
        elif case == "persons-not-utf8":
            bad, line = tmp_path / "persons.jsonl", 1
            bad.write_bytes(b'{"person_id": "nm1", "name": "\xff", "roles": ["actor"]}\n')
            flags = ["--records", records, "--persons", str(bad)]
            commands = ["build", "evolve"]
        elif case == "persons-lone-surrogate":
            bad, line = tmp_path / "persons.jsonl", 1
            bad.write_text(json.dumps({"person_id": "nm1", "name": "Y\ud800"}) + "\n",
                           encoding="utf-8")
            flags = ["--records", records, "--persons", str(bad)]
            commands = ["build", "evolve"]
        elif case == "persons-not-an-object":
            bad, line = tmp_path / "persons.jsonl", 2
            bad.write_text('{"person_id": "nm1", "name": "A"}\n[1,2]\n', encoding="utf-8")
            flags = ["--records", records, "--persons", str(bad)]
            commands = ["build", "evolve"]
        else:
            bad, line = tmp_path / "bad.jsonl", 3
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            flags = ["--records", str(bad)]
            commands = ["build", "stats", "evolve"]
        for command in commands:
            window = ["--window", "5", "--step", "5"] if command == "evolve" else []
            capsys.readouterr()
            assert run(command, *flags, *window, "--out", str(tmp_path / "out")) == 1
            stderr = capsys.readouterr().err
            assert len(stderr.splitlines()) == 1
            assert stderr.startswith(f"error: {bad}:{line}: {reason}")

    # fault -> the bytes it makes of a good input file
    FILE_FAULTS = {
        "not-utf8": lambda good: good.replace(b"\n", b"\n\xff", 1),  # line 2 starts with 0xff
        "truncated-gzip": lambda good: gzip.compress(good, mtime=0)[:-10],  # cut in the data
        "corrupt-gzip": lambda good: gzip.compress(good, mtime=0)[:10] + b"\xff" * 8,  # bad block
        "bad-gzip-header": lambda good: b"\x1f\x8b" + good,  # no compression method 8
        # a header field one longer than the csv module's field size limit
        "huge-header-field": lambda good: good.replace(b"\n", b"," + b"x" * 131_073 + b"\n", 1),
    }

    @pytest.mark.parametrize("flag, fault, code, message", [
        ("--input", "not-utf8", 1, "BAD: not UTF-8 text"),
        ("--input", "truncated-gzip", 1, "BAD: truncated gzip stream"),
        ("--basics", "not-utf8", 1, "BAD: not UTF-8 text"),
        ("--basics", "truncated-gzip", 1, "BAD: truncated gzip stream"),
        ("--principals", "not-utf8", 1, "BAD: not UTF-8 text"),
        ("--principals", "truncated-gzip", 1, "BAD: truncated gzip stream"),
        ("--names", "not-utf8", 1, "BAD: not UTF-8 text"),
        ("--names", "truncated-gzip", 1, "BAD: truncated gzip stream"),
        ("--names", "corrupt-gzip", 1, "BAD: corrupt gzip stream"),
        ("--principals", "bad-gzip-header", 1, "BAD: corrupt gzip stream"),
        ("--config", "not-utf8", 2, "BAD:2: not UTF-8 text"),
        ("--input", "huge-header-field", 1, "BAD: header: field larger than field limit"),
        ("--principals", "huge-header-field", 1, "BAD: header: field larger than field limit"),
    ])
    def test_undecodable_input_exits_with_one_line(self, catalog_csv, tmp_path, capsys,
                                                   flag, fault, code, message):
        dumps = (text.encode("utf-8") for text in TestImdbPipeline.PINNED_DUMPS.values())
        files = dict(zip(("basics", "principals", "names"), dumps))
        files["input"] = catalog_csv.read_bytes()
        files["config"] = b"source = netflix\n"
        key = flag.lstrip("-")
        files[key] = self.FILE_FAULTS[fault](files[key])
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        imdb = key in ("basics", "principals", "names")
        argv = ["--source", "imdb" if imdb else "netflix"]
        for name in ("basics", "principals", "names") if imdb else ("input", "config"):
            argv += [f"--{name}", str(tmp_path / name)]
        assert run("ingest", *argv, "--out", str(tmp_path / "out")) == code
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1
        assert message.replace("BAD", str(tmp_path / key)) in stderr

    def test_unknown_actor_is_data_error(self, pipeline_dir, tmp_path, capsys):
        capsys.readouterr()
        code = run("path", "Us ActorA", "No Such Person",
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == "error: unknown actor: 'No Such Person'\n"

    def test_ambiguous_actor_suggests_candidates(self, tmp_path, capsys):
        from castnet.ingest import TitleKind, TitleRecord

        records = [
            TitleRecord("t1", "Film", TitleKind.MOVIE, 2000, (), ("nm1", "nm2")),
        ]
        g = graph_of(records, names={"nm1": "Same Name", "nm2": "Same Name"})
        graph_path = tmp_path / "dup.bin"
        save_cache(graph_path, g)
        code = run("path", "Same Name", "Same Name [nm2]",
                   "--graph", str(graph_path), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: Same Name is ambiguous; use one of: Same Name [nm1], Same Name [nm2]\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (("build",), "--records"),
        (("ingest", "--source", "imdb", "--basics", "b", "--principals", "p"), "--names"),
        (("ingest", "--source", "netflix"), "--input"),
        (("ingest", "--config", "CONF"), "bad.conf:2: unknown config key 'nonsense'"),
        (("crossover", "--config", "MISSING"),
         "nope.conf: cannot read config file: No such file or directory"),
        (("frobnicate",), "'frobnicate'"),
        (("crossover", "--config", ""), "argument --config: expected a file path, got ''"),
    ], ids=["build-no-records", "imdb-no-names", "netflix-no-input", "config-unknown-key",
            "config-missing", "unknown-command", "config-empty"])
    def test_usage_error_exits_2_before_out_exists(self, tmp_path, capsys, argv, message):
        conf = tmp_path / "bad.conf"
        conf.write_text("source = netflix\nnonsense = 1\n", encoding="utf-8")
        paths = {"CONF": str(conf), "MISSING": str(tmp_path / "nope.conf")}
        argv = [paths.get(a, a) for a in argv]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and message in stderr
        assert not out.exists()

    def test_help_returns_0(self, capsys):
        assert run("build", "--help") == 0
        assert "--records" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, threads", [("0", 2), ("1", 1), ("2", 2), ("64", 2)])
    def test_threads_clamped_to_cores(self, pipeline_dir, tmp_path, monkeypatch, flag, threads):
        from castnet import centrality

        seen = []

        def closeness(g, threads=1):  # records the request and starts no thread
            seen.append(threads)
            return centrality.degree_centrality(g)

        monkeypatch.setattr(centrality, "closeness_centrality", closeness)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run("centrality", "closeness", "--threads", flag,
                   "--graph", str(pipeline_dir / "graph.bin"), "--out", str(tmp_path)) == 0
        assert seen == [threads]


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

    @pytest.mark.parametrize(
        "argv, config, flag",
        [
            (("ingest", "--source", "imdb", "--basics", "b", "--principals", "p",
              "--names", "n"), "kind = film", "--kind"),
            (("ingest", "--input", "CATALOG"), "source = tvdb", "--source"),
            (("export", "--graph", "GRAPH"), "format = png", "--format"),
            (("centrality", "closeness", "--graph", "GRAPH"), "threads = many", "--threads"),
            (("communities", "--graph", "GRAPH"), "seed = 1.5", "--seed"),
            (("build", "--records", "RECORDS"), "min_cast = -1", "--min-cast"),
            (("build", "--records", "RECORDS"), "min_cast = 9\nmax_cast = 3", "--min-cast"),
        ],
        ids=["kind", "source", "format", "threads", "seed", "min_cast", "min_cast-above-max"],
    )
    def test_bad_config_value_exits_2_with_one_line(self, pipeline_dir, catalog_csv, tmp_path,
                                                    capsys, argv, config, flag):
        paths = {"CATALOG": catalog_csv, "GRAPH": pipeline_dir / "graph.bin",
                 "RECORDS": pipeline_dir / "records.jsonl"}
        conf = tmp_path / "run.conf"
        conf.write_text(config + "\n", encoding="utf-8")
        out = tmp_path / "rejected"
        capsys.readouterr()
        argv = [str(paths.get(a, a)) for a in argv]
        assert run(*argv, "--config", str(conf), "--out", str(out)) == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and flag in stderr
        assert not out.exists()

    def test_flag_overrides_config_value(self, pipeline_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed = 7\ngraph = {pipeline_dir / 'graph.bin'}\n", encoding="utf-8")
        assert run("crossover", "--config", str(conf), "--seed", "3", "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "run_report.json").read_text())["seed"] == 3

    def test_config_may_start_with_a_bom(self, pipeline_dir, tmp_path):
        outputs = []
        for name, head in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            conf = tmp_path / f"{name}.cfg"
            conf.write_bytes(head + b"seed = 3\n")
            out = tmp_path / name
            assert run("communities", "--config", str(conf), "--graph",
                       str(pipeline_dir / "graph.bin"), "--out", str(out)) == 0
            outputs.append([(out / f).read_bytes() for f in ("communities.csv", "run_report.json")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1][1])["seed"] == 3

    def test_keys_the_command_does_not_read_are_ignored(self, tmp_path, catalog_csv):
        conf = tmp_path / "run.conf"
        conf.write_text(f"input = {catalog_csv}\nseed = 7\nthreads = 2\nformat = dot\n"
                        "graph = missing.bin\nmax_cast = 0\n", encoding="utf-8")
        assert run("ingest", "--config", str(conf), "--out", str(tmp_path)) == 0
        assert (tmp_path / "records.jsonl").exists()

    def test_readme_config_table_matches_parser(self):
        """README's config-key table, row by row: the commands that read the
        same keys, in parser order, and those keys."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = []
        for line in readme.read_text(encoding="utf-8").splitlines():
            row = re.fullmatch(r"\| (`\w+`(?:, `\w+`)*) \| (`\w+`(?:, `\w+`)*) \|", line)
            if row:
                rows.append((re.findall(r"`(\w+)`", row[1]), set(re.findall(r"`(\w+)`", row[2]))))
        expected = []
        for command, keys in cli.build_parser().settings_of.items():
            if expected and expected[-1][1] == keys:
                expected[-1][0].append(command)
            else:
                expected.append(([command], keys))
        assert rows == expected

    def test_data_dir_env(self, tmp_path, catalog_csv, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(catalog_csv.parent))
        out = tmp_path / "envout"
        assert run("ingest", "--source", "netflix", "--input", catalog_csv.name,
                   "--out", str(out)) == 0
        assert (out / "records.jsonl").exists()


# A CSV cell as ``fmt_score`` writes a float with a point or an exponent.
_FLOAT_CELL = re.compile(r"-?(\d+\.\d+|\d+(\.\d+)?e[-+]\d+)")


def run_every_command(out: Path, catalog_csv) -> None:
    """The whole pipeline, every command writing into ``out``."""
    assert run("ingest", "--source", "netflix", "--input", str(catalog_csv),
               "--out", str(out)) == 0
    records = ("--records", str(out / "records.jsonl"), "--out", str(out))
    assert run("build", *records) == 0
    assert run("stats", *records) == 0
    assert run("evolve", "--window", "4", "--step", "2", *records) == 0
    for argv in (*(("centrality", m) for m in ("degree", "betweenness", "closeness",
                                                  "eigenvector")),
                 ("communities",), ("clusters", "--tau", "0.02"), ("crossover",),
                 ("partners", "--top", "5"), ("predict", "adamic_adar", "--top", "5"),
                 ("path", "Us ActorA", "In ActorA"),
                 ("export", "--format", "graphml"), ("export", "--format", "dot")):
        assert run(*argv, "--graph", str(out / "graph.bin"), "--out", str(out)) == 0


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, catalog_csv):
        first, second = tmp_path / "first", tmp_path / "second"
        run_every_command(first, catalog_csv)
        run_every_command(second, catalog_csv)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert not [name for name in names if name.endswith(".tmp")]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_json_floats_have_at_most_6_significant_digits(self, tmp_path, catalog_csv):
        """The floats of every JSON file and the float cells of every CSV."""
        run_every_command(tmp_path, catalog_csv)
        floats: list[str] = []
        for path in sorted(tmp_path.glob("*.json")):
            json.loads(path.read_text(encoding="utf-8"), parse_float=floats.append)
        for path in sorted(tmp_path.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                floats += [cell for row in csv.reader(fh) for cell in row
                           if _FLOAT_CELL.fullmatch(cell)]
        assert len(floats) > 100
        for text in floats:
            assert len(Decimal(text).normalize().as_tuple().digits) <= 6, text


def test_readme_library_block_runs(catalog_csv):
    """The README's Library example, run on the test catalog."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)[1]
    assert '"netflix_titles.csv"' in block
    namespace: dict = {}
    exec(block.replace('"netflix_titles.csv"', repr(str(catalog_csv))), namespace)
    scores = [score for _, score in namespace["top"]]
    assert len(scores) == 10 and scores == sorted(scores, reverse=True)
    assert namespace["part"].n_communities >= 2
    assert namespace["unlinked"] and namespace["pairs"]
