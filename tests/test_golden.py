"""Golden outputs: each command's output files, stdout, stderr and exit code
hash to the bytes an earlier, reviewed build wrote, so a change meant to keep
every output byte fails here when it does not.

The inputs in tests/golden/ were made once with perfbench.gen and are
committed, so no change to numpy's random streams can move them:
- mixed.jsonl: `mixed_manifest(1, 400).rows`;
- neardup.jsonl: `neardup_manifest(1, 256)`;
- budget.jsonl: `budget_manifest(1, 400)`;
each written by `write_jsonl`, and ref.tsv and hyp.tsv: `id<TAB>text` and
`id<TAB>hypothesis` for each ASR row of mixed.jsonl that has a hypothesis.
"""

import hashlib
from pathlib import Path

import pytest

from capypipe.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"

# argv, with {g} for the golden directory and {t} for a fresh output directory
COMMANDS = {
    "filter-mixed": "filter --manifest {g}/mixed.jsonl --out {t}/kept.jsonl"
                    " --dropped {t}/dropped.jsonl --report {t}/rep",
    "filter-neardup": "filter --manifest {g}/neardup.jsonl --out {t}/kept.jsonl"
                      " --dropped {t}/dropped.jsonl --report {t}/rep"
                      " --cluster-jaccard-threshold 0.5",
    "budget": "budget --manifest {g}/budget.jsonl --out {t}/budget.jsonl",
    "budget-slices-4-cell-336": "budget --manifest {g}/budget.jsonl --out {t}/budget.jsonl"
                                " --max-slices 4 --cell-size 336",
    **{f"plan-tiles-{w}x{h}": f"plan-tiles --width {w} --height {h}"
       for w, h in ((64, 64), (5000, 64), (896, 448), (1344, 1344))},
    "stats": "stats --manifest {g}/mixed.jsonl",
    **{f"metrics-{m}": f"metrics {m} --ref {{g}}/ref.tsv --hyp {{g}}/hyp.tsv"
       for m in ("wer", "cer", "sim", "bleu")},
}

EMPTY = hashlib.sha256(b"").hexdigest()
# computed with the code of the commit before this test was added; a change
# meant to alter an output updates its hashes here and says why
EXPECT = {
    "budget": {
        "exit": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "budget.jsonl": "d761ee596b8c4bb3acc7b8295596531ef582a9a85825450b66671a70cbfc3988",
    },
    "budget-slices-4-cell-336": {
        "exit": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "budget.jsonl": "0f3d78e63dffb8fa3a840333cc49883ee8b1add4fbdb736464e256d4101df434",
    },
    "filter-mixed": {
        "exit": 0,
        "stdout": EMPTY,
        "stderr": "5f69ca27d53c33b6c62c88bec3a4b61cb89f99b467160edea324353dbe28bff7",
        "dropped.jsonl": "b803970b21a90bccf104ef2842a79a47cdcb5fd1736bbe0dd1b963d29696f2f3",
        "kept.jsonl": "be2dbfc0554fb533ea4fd10f6e27fbf33c21d5593af7a65e380e965f79953e78",
        "rep/consistency-filter.json":
            "897144205e71528551ed9d1484164dfecdb7ea146af4d45aa70a3bb69fe86869",
        "rep/dedup.json": "2538e2814110806b2c53f13ea88d054444dba987b84d259ce4e43a924b3b5eba",
        "rep/near-duplicate-cluster.json":
            "6ce6bd506c9969ac5577ce3573a4bad2f5907c89cd2ed3a39c837325bda503d5",
    },
    "filter-neardup": {
        "exit": 0,
        "stdout": EMPTY,
        "stderr": "e26ed463bb1d707d536adf8211a3d42118c4356124892dc3e94eacbfcd87f2b3",
        "dropped.jsonl": "5aaf55145056f1aa7ce332868c45a8598c3c4f5a650da70520f86f2967c07149",
        "kept.jsonl": "20a600048e235562d7e1f2e4d0784be81b54499786a428b3caebde0a3f4270dd",
        "rep/consistency-filter.json":
            "348f176f0eb2f5ee6f7c60827e4b425b8b2cbf7ae042af3987048a6393911481",
        "rep/dedup.json": "35cc0f9868703cfe00a36cd27c572956a4accab3060a8a3a269e9b7e48070a2f",
        "rep/near-duplicate-cluster.json":
            "1246eb908ed36f4e9d88e47d1e18c0ce9ccb1260cb790ec89ca3894042f27fa8",
    },
    "metrics-bleu": {
        "exit": 0,
        "stdout": "967eaa4d9fa4943a82a35d7a44c7c73a8330ad1fd202ed3a468ecb0323ea046c",
        "stderr": EMPTY,
    },
    "metrics-cer": {
        "exit": 0,
        "stdout": "253931173add746b6c1c378b4aa9887f865e18f9388ababf400765d2bac8c5d1",
        "stderr": EMPTY,
    },
    "metrics-sim": {
        "exit": 0,
        "stdout": "0a00afebbed255f9f8145f428bfb5cb9a81a3f78a4afb2928f0d111a36905058",
        "stderr": EMPTY,
    },
    "metrics-wer": {
        "exit": 0,
        "stdout": "abd72892d80a2e777283f2283db4606b7a3a15b34c609844885154015cf49f30",
        "stderr": EMPTY,
    },
    "plan-tiles-1344x1344": {
        "exit": 0,
        "stdout": "efdd12f073717ba6de8dcab2764c5663557ad6dcbd64f4d02ddee7f0e0463dbe",
        "stderr": EMPTY,
    },
    "plan-tiles-5000x64": {
        "exit": 0,
        "stdout": "8708cbb9f19cb86ce66a4c571487ee5bcdf8bb44ef3a9b8b01754396fecef761",
        "stderr": EMPTY,
    },
    "plan-tiles-64x64": {
        "exit": 0,
        "stdout": "2d6560624123a62c1f23ab13faf5bead4827ee35e31af7e0f04053cbb995d7d8",
        "stderr": EMPTY,
    },
    "plan-tiles-896x448": {
        "exit": 0,
        "stdout": "b9a453b16807b194c4674e3fe8d14b420cc3601237802fced6da3be8e605269b",
        "stderr": EMPTY,
    },
    "stats": {
        "exit": 0,
        "stdout": "c5cfcb05a7b36bd1216e8c3d2971f9a3a160629dc170243cee74a3dfe54e9a3c",
        "stderr": EMPTY,
    },
}


def outputs(name: str, out_dir: Path, capsys) -> dict:
    """The exit code of `name`'s command, and the SHA-256 of its stdout, its
    stderr and each file it wrote under `out_dir`, by path relative to it."""
    code = dispatch([arg.format(g=GOLDEN, t=out_dir) for arg in COMMANDS[name].split()])
    captured = capsys.readouterr()
    got = {"exit": code}
    for stream in ("out", "err"):
        got[f"std{stream}"] = hashlib.sha256(getattr(captured, stream).encode()).hexdigest()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            got[path.relative_to(out_dir).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_the_golden_hashes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CAPYPIPE_CONFIG", raising=False)
    assert outputs(name, tmp_path, capsys) == EXPECT[name]
