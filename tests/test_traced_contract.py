"""What the traced benchmark (bench/tracing.py) relies on in the library.

The tracer wraps module globals by name, and a pool worker calls the
wrapped ``_run_job`` it inherits by fork; these tests read its patch
table without editing it and check that every patched name exists, and
that each artifact is written exactly once through the patched writers.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from conftest import tree_digest

import fuzzcoh
from fuzzcoh import PipelineConfig, pipeline, run_pipeline

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
WRITERS = ("write_json", "write_features_csv", "write_memberships_csv")
SIM = {"n_blocks": 8, "block_length": 192, "proportions": [0.5, 0.5, 0.0]}


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py's namespace, executed from its source (no bytecode written)."""
    namespace: dict = {}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def config(tmp_path, jobs):
    return PipelineConfig(seed=2, output_dir=str(tmp_path / "run"), sim=SIM,
                          bands=("raw", "Beta"), n_clusters=2, fuzziness=1.5, n_restarts=2,
                          dump_dependence=True, jobs=jobs)


def test_patch_targets_resolve(tracing):
    for module, attr, *_ in tracing["_PATCHES"]:
        assert callable(getattr(getattr(fuzzcoh, module), attr)), (module, attr)
    assert {"kendall", "pearson"} <= set(pipeline.DEPENDENCE_FNS)


def test_each_artifact_written_once_through_pipeline_writers(tmp_path, monkeypatch):
    written = []

    def counting(name):
        fn = getattr(pipeline, name)

        def wrapper(path, *args):
            written.append((Path(path), name))
            return fn(path, *args)
        return wrapper

    for name in (*WRITERS, "write_rows_csv"):
        monkeypatch.setattr(pipeline, name, counting(name))
    run_pipeline(config(tmp_path, jobs=1))
    run = tmp_path / "run"
    paths = [path for path, _ in written]
    assert sorted(paths) == sorted(p for p in run.rglob("*") if p.is_file())
    assert len(set(paths)) == len(paths)  # no file is written twice
    assert {(p.relative_to(run), name) for p, name in written if name == "write_rows_csv"} == {
        (Path("summary.csv"), "write_rows_csv")}
    assert paths[-2:] == [run / "summary.json", run / "summary.csv"]  # the summary comes last


def test_traced_pool_run_writes_inside_its_jobs(tmp_path, monkeypatch, tracing):
    # restore every global the tracer replaces when the test ends
    for module, attr, *_ in tracing["_PATCHES"]:
        mod = getattr(fuzzcoh, module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    for key, fn in list(pipeline.DEPENDENCE_FNS.items()):
        monkeypatch.setitem(pipeline.DEPENDENCE_FNS, key, fn)
    tracer = tracing["Tracer"](tmp_path / "spans", "test")
    tracing["install"](tracer)
    run_pipeline(config(tmp_path, jobs=2))
    spans = tracer.collect()
    jobs = {s["id"] for s in spans if s["name"] == "pipeline.job"}
    assert len(jobs) == 2
    writes = [s for s in spans if s["name"] in {f"pipeline.{w}" for w in WRITERS}]
    # 7 files per job (features, memberships, 4 JSON payloads, dependence dump) + summary.json
    assert len(writes) == 2 * 7 + 1
    assert sum(s["parent"] in jobs for s in writes) == 2 * 7
    assert sum(s["name"] == "dependence.kendall" for s in spans) == 2  # one call per job
    # the traced run writes the same bytes as an untraced one
    monkeypatch.undo()
    untraced = tmp_path / "untraced"
    run_pipeline(replace(config(tmp_path, jobs=2), output_dir=str(untraced)))
    assert tree_digest(tmp_path / "run") == tree_digest(untraced)
