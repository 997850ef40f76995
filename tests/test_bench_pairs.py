import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def stdout(wall, correct=True, failed=0):
    """What perfbench/run.py prints: a summary, then the result as JSON."""
    result = {"correct": correct, "attempted": 20, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}
    return f"workload=limit seed=1 rounds=20\nwall_s = {wall!r} s\n{json.dumps(result)}\n"


def run(pair, side, wall, trace=False, **kw):
    return {"workload": "limit", "pair": pair, "side": side, "trace": trace,
            "result": bench_pairs.last_json_line(stdout(wall, **kw))}


class TestLastJsonLine:
    def test_reads_the_last_line(self):
        assert bench_pairs.last_json_line(stdout(2.5))["metrics"]["wall_s"]["value"] == 2.5

    @pytest.mark.parametrize("text", ["", "\n\n", "Traceback ...\nValueError: x\n", "[1, 2]\n"])
    def test_no_result(self, text):
        assert bench_pairs.last_json_line(text) is None


class TestPytestCounts:
    @pytest.mark.parametrize("text,counts", [
        ("....\n321 passed in 39.80s\n", {"passed": 321}),
        ("F.\nFAILED tests/test_x.py::test_y - 2 != 3\n"
         "2 failed, 319 passed, 1 warning in 41.02s\n",
         {"failed": 2, "passed": 319, "warning": 1}),
        ("===== 1 error, 3 skipped in 0.50s =====\n", {"error": 1, "skipped": 3}),
        ("Traceback ...\n", {}),
    ])
    def test_summary_line(self, text, counts):
        assert bench_pairs.pytest_counts(text) == counts


class TestSummarize:
    PARENT = [2.0, 2.4, 2.2, 2.6]
    CHANGE = [1.5, 1.7, 2.3, 1.6]

    def runs(self):
        runs = []
        for pair, (p, c) in enumerate(zip(self.PARENT, self.CHANGE)):
            runs += [run(pair, "parent", p), run(pair, "change", c)]
        return runs + [run(4, "parent", 9.0, trace=True), run(4, "change", 8.0, trace=True)]

    def test_medians_quartiles_and_change_lower(self):
        entry = bench_pairs.summarize(self.runs())["limit"]
        wall = entry["metrics"]["wall_s"]
        assert entry["pairs"] == 4
        assert wall["unit"] == "s"
        assert wall["parent"]["median"] == pytest.approx(2.3)
        assert wall["parent"]["q1"] == pytest.approx(2.15)
        assert wall["parent"]["q3"] == pytest.approx(2.45)
        assert wall["change"]["median"] == pytest.approx(1.65)
        assert wall["change"]["runs"] == self.CHANGE
        assert wall["change_lower"] == 3  # pair 2: 2.3 against 2.2
        assert entry["metrics"]["peak_rss_mb"]["change_lower"] == 0  # ties count for neither
        assert entry["failed_of_attempted"]["parent"] == ["0/20"] * 4
        assert entry["traced"] == {"parent": {"wall_s": 9.0, "peak_rss_mb": 40.0},
                                   "change": {"wall_s": 8.0, "peak_rss_mb": 40.0}}

    def test_incomplete_pair_is_left_out(self):
        runs = self.runs()
        runs[1]["result"] = None  # the change's run of pair 0 printed nothing
        entry = bench_pairs.summarize(runs)["limit"]
        assert entry["pairs"] == 3
        assert entry["metrics"]["wall_s"]["parent"]["runs"] == self.PARENT[1:]
        assert not bench_pairs.all_correct(runs)

    def test_incorrect_run(self):
        runs = self.runs()
        assert bench_pairs.all_correct(runs)
        runs[2] = run(1, "parent", 2.4, correct=False)
        assert not bench_pairs.all_correct(runs)
        assert bench_pairs.summarize(runs)["limit"]["correct"] == {"parent": False,
                                                                    "change": True}
