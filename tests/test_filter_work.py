"""`filter` does each record's work once, counted on the `filter-mixed`
benchmark workload's make-up (`perfbench.gen.mixed_manifest`)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.gen import mixed_manifest, write_jsonl  # noqa: E402

from capypipe import manifest, pipeline  # noqa: E402
from capypipe.cli import dispatch  # noqa: E402
from capypipe.manifest import SampleRecord  # noqa: E402

RECORDS = 2000


def test_filter_validates_each_input_record_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.jsonl"
    write_jsonl(mixed_manifest(1, RECORDS).rows, src)
    calls = []
    validate = manifest.validate
    monkeypatch.setattr(manifest, "validate", lambda rec: calls.append(rec.id) or validate(rec))
    code = dispatch([
        "filter", "--manifest", str(src), "--out", str(tmp_path / "kept.jsonl"),
        "--dropped", str(tmp_path / "dropped.jsonl"), "--report", str(tmp_path / "reports"),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == RECORDS
    assert (tmp_path / "kept.jsonl").read_text(encoding="utf-8").count("\n") > RECORDS // 2


def test_curate_builds_no_cluster_assignment(monkeypatch):
    records = [SampleRecord.from_json(row) for row in mixed_manifest(1, RECORDS).rows]
    built = []
    assignment = pipeline.ClusterAssignment
    monkeypatch.setattr(
        pipeline, "ClusterAssignment", lambda *args: built.append(args) or assignment(*args)
    )
    result = pipeline.curate(records)
    assert result.reports[1].input_count > RECORDS // 2
    assert built == []
    # `cluster_prune` alone builds them, one per record
    assert len(pipeline.cluster_prune(records[:50])[1]) == len(built) == 50
