"""What a castnet process imports: each command loads only the modules it uses."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import castnet
from castnet.cli import BLAS_THREAD_ENV
from castnet.graphio import save_cache
from conftest import make_graph

SRC = os.path.dirname(os.path.dirname(castnet.__file__))


def run_python(code: str, **env: str) -> str:
    """Runs ``code`` with this castnet, no BLAS thread variable set but ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(base, PYTHONPATH=SRC, **env), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_or_the_cli_does_not_load_numpy():
    for module in ("castnet", "castnet.cli"):
        assert run_python(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


def test_stats_and_ingest_do_not_load_numpy(tmp_path, catalog_csv):
    out = str(tmp_path)
    records = str(tmp_path / "records.jsonl")
    for argv in (
        ["ingest", "--source", "netflix", "--input", str(catalog_csv), "--out", out],
        ["stats", "--records", records, "--out", out],
    ):
        code = (
            "import sys, castnet.cli\n"
            f"code = castnet.cli.main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)"
        )
        assert run_python(code) == "0 False", argv


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import castnet\n"
        "unlisted = sorted(set(castnet.__all__) - set(dir(castnet)))\n"
        "print(unlisted, [n for n in castnet.__all__ if getattr(castnet, n, None) is None],"
        " hasattr(castnet, 'no_such_name'))"
    )
    assert run_python(code) == "[] [] False"


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["centrality", "degree"], "_bfs _options _write centrality cli errors graph graphio"),
        (["communities"], "_options _write cli community errors graph graphio"),
        (["export", "--format", "dot"], "_options _write cli errors graph graphio"),
        (["clusters", "--tau", "0.5"], "_options _write cli community errors graph graphio"),
        # _bfs comes with centrality, whose Scores and writer crossover uses.
        (["crossover"], "_bfs _options _write centrality cli community errors graph graphio"),
        (["evolve", "--window", "5", "--step", "5"],
         "_options _write cli community errors graph ingest"),
        (["centrality", "closeness"], "_bfs _options _write centrality cli errors graph graphio"),
        (["centrality", "closeness", "--threads", "2"],
         "_bfs _options _write centrality cli errors graph graphio"),
    ],
)
def test_graph_commands_load_only_their_modules(tmp_path, catalog_csv, argv, modules):
    """None of these commands loads scipy: ``import scipy.sparse`` costs
    about 0.2 s of CPU per process, and only betweenness needs it."""
    if argv[0] == "evolve":
        castnet.cli.main(["ingest", "--source", "netflix", "--input", str(catalog_csv),
                          "--out", str(tmp_path)])
        source = ["--records", str(tmp_path / "records.jsonl")]
    else:
        graph = tmp_path / "graph.bin"
        # A path over three source blocks, so `--threads 2` starts its pool.
        save_cache(graph, make_graph(150, [(i, i + 1) for i in range(149)]))
        source = ["--graph", str(graph)]
    argv = [*argv, *source, "--out", str(tmp_path)]
    code = (
        "import sys, castnet.cli\n"
        f"code = castnet.cli.main({argv!r})\n"
        "print(code, *sorted(m[8:] for m in sys.modules if m.startswith('castnet.')),"
        " *(['scipy'] if 'scipy' in sys.modules else []))"
    )
    assert run_python(code) == f"0 {modules}"


def test_cli_process_starts_no_blas_thread_pool(tmp_path):
    """A ``BLAS_THREAD_ENV`` value the user set wins over the default of 1."""
    graph = tmp_path / "graph.bin"
    save_cache(graph, make_graph(3, [(0, 1), (1, 2)]))
    argv = ["castnet", "centrality", "eigenvector", "--graph", str(graph), "--out", str(tmp_path)]
    code = (
        "import os, sys, castnet.cli\n"
        f"sys.argv = {argv!r}\n"
        "code = castnet.cli.console_main()\n"
        f"print(code, *(os.environ[v] for v in {BLAS_THREAD_ENV!r}), "
        "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )
    assert run_python(code).split() == ["0", "1", "1", "1", "1"]  # exit code, variables, threads
    assert run_python(code, OPENBLAS_NUM_THREADS="3").split()[:2] == ["0", "3"]


def test_benchmark_traced_names_exist():
    """Every ``castnet.<module>.<name>`` in ``TRACED`` of perfbench/run.py is
    callable. The benchmark wraps them by name, so a rename fails here and
    not in a benchmark run. The harness is parsed, not imported."""
    run_py = os.path.join(os.path.dirname(SRC), "perfbench", "run.py")
    if not os.path.isfile(run_py):
        pytest.skip("no perfbench/ beside src/")
    with open(run_py, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"castnet.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"castnet.{module}.{name}"
