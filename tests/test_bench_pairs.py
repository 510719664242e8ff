"""The summary of ``tools/bench_pairs.py``: quartiles, median shift, wins and the IQR test."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    ]
}


def run(pair, side, p50, throughput):
    return {"pair": pair, "side": side, "metrics": {"op_p50_ms": p50, "throughput_per_s": throughput}}


def test_summary_counts_wins_in_the_better_direction():
    parent = [0.140, 0.142, 0.139, 0.160, 0.141]
    change = [0.110, 0.111, 0.145, 0.112, 0.109]
    runs = [run(k, "parent", p, 1.0 / p) for k, p in enumerate(parent)]
    runs += [run(k, "change", c, 1.0 / c) for k, c in enumerate(change)]
    out = bench_pairs.summarize(runs, SPEC)
    p50, rate = out["op_p50_ms"], out["throughput_per_s"]
    assert p50["wins"] == rate["wins"] == 4 and p50["pairs"] == 5
    assert p50["parent"]["median"] == 0.141 and p50["change"]["median"] == 0.111
    assert p50["median_shift"] == pytest.approx(0.111 / 0.141 - 1.0)
    # statistics.quantiles(n=4) of the parent: 0.1395 and 0.151.
    assert p50["parent_iqr"] == pytest.approx(0.151 - 0.1395)
    assert p50["gap_exceeds_parent_iqr"]
    assert rate["median_shift"] > 0


def test_summary_without_a_gap():
    runs = [run(k, side, 0.14 + 0.001 * k, 7.0) for k in range(4) for side in ("parent", "change")]
    out = bench_pairs.summarize(runs, SPEC)["op_p50_ms"]
    assert out["wins"] == 0 and out["median_shift"] == 0.0
    assert not out["gap_exceeds_parent_iqr"]


def test_seed_count_must_match_the_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", "certify_corpus", "--pairs", "5", "--seeds", "1-3"])
    assert exc.value.code == 2
    assert "names 3 seeds for 5 pairs" in capsys.readouterr().err


def test_src_lines_is_wc_l(tmp_path):
    package = tmp_path / "src" / "povmsim"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("ignored\n")
    assert bench_pairs.src_lines(tmp_path) == 3
    path, commit = bench_pairs.checkout(str(tmp_path), tmp_path, "unused")
    assert path == tmp_path.resolve() and commit is None
