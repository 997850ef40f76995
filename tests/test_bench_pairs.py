import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def stdout(wall, correct=True, failed=0, rounds=20):
    """What perfbench/run.py prints: a summary, then the result as JSON."""
    result = {"correct": correct, "attempted": 20, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}
    return (f"workload=limit seed=1 rounds={rounds} attempted=20 failed={failed} "
            f"correct={correct}\nwall_s = {wall!r} s\n{json.dumps(result)}\n")


def run(pair, side, wall, trace=False, **kw):
    text = stdout(wall, **kw)
    return {"workload": "limit", "pair": pair, "side": side, "trace": trace,
            "rounds": bench_pairs.perfbench_rounds(text),
            "result": bench_pairs.last_json_line(text)}


class TestLastJsonLine:
    def test_reads_the_last_line(self):
        assert bench_pairs.last_json_line(stdout(2.5))["metrics"]["wall_s"]["value"] == 2.5

    @pytest.mark.parametrize("text", ["", "\n\n", "Traceback ...\nValueError: x\n", "[1, 2]\n"])
    def test_no_result(self, text):
        assert bench_pairs.last_json_line(text) is None


class TestPerfbenchRounds:
    def test_reads_the_summary_line(self):
        assert bench_pairs.perfbench_rounds(stdout(2.5, rounds=77)) == 77

    @pytest.mark.parametrize("text", ["", "Traceback ...\nValueError: x\n",
                                      "rounds=3\n", "workload=limit seed=1 rounds=\n"])
    def test_no_summary_line(self, text):
        assert bench_pairs.perfbench_rounds(text) is None


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
    PARENT_ROUNDS = [17, 14, 16, 13]
    CHANGE_ROUNDS = [23, 20, 15, 21]

    def runs(self):
        runs = []
        for pair, (p, c) in enumerate(zip(self.PARENT, self.CHANGE)):
            runs += [run(pair, "parent", p, rounds=self.PARENT_ROUNDS[pair]),
                     run(pair, "change", c, rounds=self.CHANGE_ROUNDS[pair])]
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
        assert entry["rounds"] == {
            "parent": {"median": 15.0, "q1": 13.75, "q3": 16.25, "runs": self.PARENT_ROUNDS},
            "change": {"median": 20.5, "q1": 18.75, "q3": 21.5, "runs": self.CHANGE_ROUNDS}}
        assert entry["traced"] == {"parent": {"wall_s": 9.0, "peak_rss_mb": 40.0},
                                   "change": {"wall_s": 8.0, "peak_rss_mb": 40.0}}

    def test_verdicts_from_end_to_end_bounds(self):
        # wall_s: parent median 2.3 with IQR 0.3 (0.13 of it), change median 1.65
        bounds = {"wall_s": {"bound": 0.25, "better": "lower"},
                  "peak_rss_mb": {"bound": 0.1, "better": "lower"}}
        metrics = bench_pairs.summarize(self.runs(), bounds)["limit"]["metrics"]
        assert metrics["wall_s"]["relative_change"] == pytest.approx(1.65 / 2.3 - 1.0)
        assert metrics["wall_s"]["parent_spread"] == pytest.approx(0.3 / 2.3)
        assert metrics["wall_s"]["verdict"] == "ok"
        assert metrics["peak_rss_mb"]["relative_change"] == 0.0
        assert metrics["peak_rss_mb"]["verdict"] == "ok"
        assert "verdict" not in bench_pairs.summarize(self.runs())["limit"]["metrics"]["wall_s"]

    @pytest.mark.parametrize("bound,better,expected", [
        (0.25, "higher", "worse"),     # 28% lower where higher is better
        (0.1, "lower", "unresolved"),  # better, but the parent spreads 13% > 10%
        (0.1, "higher", "worse"),      # worse beyond the bound wins over the spread
        (0.3, "higher", "ok"),
    ])
    def test_verdict(self, bound, better, expected):
        bounds = {"wall_s": {"bound": bound, "better": better}}
        wall = bench_pairs.summarize(self.runs(), bounds)["limit"]["metrics"]["wall_s"]
        assert wall["verdict"] == expected

    def test_bounds_read_from_benchmark_json(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
        assert bench_pairs.end_to_end_bounds(tmp_path) == {
            "wall_s": {"bound": 0.25, "better": "lower"}}
        assert bench_pairs.end_to_end_bounds(tmp_path / "missing") == {}

    def test_incomplete_pair_is_left_out(self):
        runs = self.runs()
        runs[1]["result"] = None  # the change's run of pair 0 printed nothing
        entry = bench_pairs.summarize(runs)["limit"]
        assert entry["pairs"] == 3
        assert entry["metrics"]["wall_s"]["parent"]["runs"] == self.PARENT[1:]
        assert entry["rounds"]["parent"]["runs"] == self.PARENT_ROUNDS[1:]
        assert not bench_pairs.all_correct(runs)

    def test_incorrect_run(self):
        runs = self.runs()
        assert bench_pairs.all_correct(runs)
        runs[2] = run(1, "parent", 2.4, correct=False)
        assert not bench_pairs.all_correct(runs)
        assert bench_pairs.summarize(runs)["limit"]["correct"] == {"parent": False,
                                                                    "change": True}


class TestTimeChecks:
    """verify and Tier-1 run CHECK_RUNS times per side, alternating, with the
    subprocesses and the clock stubbed: call i takes i + 1 seconds."""

    ROOTS = {"parent": Path("/parent"), "change": Path("/change")}

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, clock = [], [0.0]

        def run(cmd, cwd, **kwargs):
            calls.append((cmd[-1], cwd))
            clock[0] += len(calls)
            out = "PASS criterion 1\nFAIL criterion 2\n" if cmd[-1] == "verify" \
                else "..\n2 passed in 1.00s\n"
            return SimpleNamespace(returncode=0, stdout=out)

        monkeypatch.setattr(bench_pairs, "subprocess", SimpleNamespace(run=run))
        monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        return calls

    def test_sides_alternate(self, calls):
        bench_pairs.time_checks(self.ROOTS, bench_pairs._time_verify)
        bench_pairs.time_checks(self.ROOTS, bench_pairs._time_tier1)
        order = ["parent", "change", "change", "parent", "parent", "change"]
        assert bench_pairs.CHECK_RUNS == 3
        assert calls == ([("verify", self.ROOTS[side]) for side in order]
                         + [("--continue-on-collection-errors", self.ROOTS[side])
                            for side in order])

    def test_summary_keeps_every_run(self, calls):
        verify = bench_pairs.time_checks(self.ROOTS, bench_pairs._time_verify)
        # calls 1..6 take 1..6 s: the parent gets 1, 4, 5 and the change 2, 3, 6
        assert [r["wall_s"] for r in verify["parent"]["runs"]] == [1.0, 4.0, 5.0]
        assert [r["wall_s"] for r in verify["change"]["runs"]] == [2.0, 3.0, 6.0]
        assert verify["parent"]["wall_s"] == {"median": 4.0, "q1": 2.5, "q3": 4.5}
        assert verify["change"]["wall_s"] == {"median": 3.0, "q1": 2.5, "q3": 4.5}
        assert verify["parent"]["runs"][0] == {"wall_s": 1.0, "exit": 0, "passed": 1,
                                               "criteria": 2,
                                               "lines": ["PASS criterion 1", "FAIL criterion 2"]}
        tier1 = bench_pairs.time_checks(self.ROOTS, bench_pairs._time_tier1)
        assert tier1["change"]["runs"][-1] == {"wall_s": 12.0, "exit": 0, "passed": 2}


class TestCheckoutFacts:
    """Each side's commit and whether its tree differs, with git stubbed."""

    def stub(self, monkeypatch, head_code=0, status="", missing=False):
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd)
            if missing:
                raise FileNotFoundError("git")
            out = "0123abcd\n" if cmd[3] == "rev-parse" else status
            return SimpleNamespace(returncode=head_code if cmd[3] == "rev-parse" else 0,
                                   stdout=out)

        monkeypatch.setattr(bench_pairs, "subprocess", SimpleNamespace(run=run))
        return calls

    def test_clean_checkout(self, monkeypatch):
        calls = self.stub(monkeypatch)
        assert bench_pairs.checkout_facts(Path("/parent")) == {"commit": "0123abcd",
                                                               "dirty": False}
        assert calls == [["git", "-C", "/parent", "rev-parse", "HEAD"],
                         ["git", "-C", "/parent", "status", "--porcelain"]]

    def test_modified_tree(self, monkeypatch):
        self.stub(monkeypatch, status=" M src/cityroad/asymptotic.py\n")
        assert bench_pairs.checkout_facts(Path("/change")) == {"commit": "0123abcd",
                                                               "dirty": True}

    @pytest.mark.parametrize("kw", [{"head_code": 128}, {"missing": True}])
    def test_outside_a_git_checkout(self, monkeypatch, kw):
        self.stub(monkeypatch, **kw)
        assert bench_pairs.checkout_facts(Path("/tmp/x")) == {"commit": None, "dirty": None}


class TestOutputs:
    """The output record from canned output directories and stdout lines."""

    @staticmethod
    def write(root, side, name, text):
        (root / side).mkdir(exist_ok=True)
        (root / side / name).write_text(text)
        return root / side / name

    def test_lines_identical_differing_and_missing(self):
        assert bench_pairs.compare_lines(["a=1", "b=2", "wrote <out>/x.csv"],
                                         ["a=1", "b=3"]) == [
            "identical",
            {"parent": "b=2", "change": "b=3"},
            {"parent": "wrote <out>/x.csv", "change": None}]

    def test_verify_criteria_apart_from_runtime(self, tmp_path, monkeypatch):
        verify = {"parent": {"runs": [{"lines": ["PASS criterion 1: x=1 runtime=0.01s (<1s)",
                                                 "PASS criterion 2: y=2"]}]},
                  "change": {"runs": [{"lines": ["PASS criterion 1: x=1 runtime=0.03s (<1s)",
                                                 "FAIL criterion 2: y=3"]}]}}
        monkeypatch.setattr(bench_pairs, "OUTPUT_COMMANDS", ())
        assert bench_pairs.output_record({}, verify)["verify"] == [
            "identical apart from runtime=",
            {"parent": "PASS criterion 2: y=2", "change": "FAIL criterion 2: y=3"}]

    def test_identical_csv(self, tmp_path):
        text = "lambda,c\n1.5,nan\n2,0.25\n"
        assert bench_pairs.compare_csv(self.write(tmp_path, "parent", "s.csv", text),
                                       self.write(tmp_path, "change", "s.csv", text)) == "identical"

    def test_largest_differences_per_column_with_rows(self, tmp_path):
        parent = self.write(tmp_path, "parent", "s.csv", "lambda,c\n1,nan\n2,0.5\n4,8\n")
        change = self.write(tmp_path, "change", "s.csv", "lambda,c\n1,nan\n2.0,0.75\n4,7\n")
        assert bench_pairs.compare_csv(parent, change) == {
            "lambda": {"max_abs": 0.0, "abs_row": 0, "max_rel": 0.0, "rel_row": 0},
            "c": {"max_abs": 1.0, "abs_row": 2, "max_rel": 0.5, "rel_row": 1}}

    def test_shape_header_and_missing_file(self, tmp_path):
        parent = self.write(tmp_path, "parent", "s.csv", "lambda,c\n1,2\n")
        change = self.write(tmp_path, "change", "s.csv", "lambda,mu\n1,2\n3,4\n")
        assert bench_pairs.compare_csv(parent, change) == {
            "header": {"parent": ["lambda", "c"], "change": ["lambda", "mu"]},
            "rows": {"parent": 1, "change": 2}}
        assert bench_pairs.compare_csv(parent, tmp_path / "change" / "gone.csv") == {
            "exists": {"parent": True, "change": False}}

    def test_each_command_with_its_arguments(self, tmp_path, monkeypatch):
        calls = []

        def run_command(root, args, outdir):
            calls.append((root, tuple(args)))
            self.write(outdir.parent, outdir.name, "s.csv", "lambda\n1\n")
            return {"exit": 0, "stdout": ["c_star=0.6"]}

        monkeypatch.setattr(bench_pairs, "_run_command", run_command)
        verify = {side: {"runs": [{"lines": []}]} for side in ("parent", "change")}
        record = bench_pairs.output_record({"parent": "P", "change": "C"}, verify)
        steep, tiny_mu = "speed --set parameters.d=1e-7", "speed --set parameters.fprime0=1e-30"
        pinned = "asymptotic --set simulation.dt=0.001"
        fast = "asymptotic --set parameters.fprime0=50"
        assert list(record) == ["simulate", "asymptotic", pinned, fast, "speed", steep, tiny_mu,
                                "verify"]
        for args in (pinned, fast, steep, tiny_mu):
            assert record[args] == {"exit": "identical", "stdout": ["identical"],
                                    "files": {"s.csv": "identical"}}
        assert calls[-4:] == [(side, tuple(args.split())) for args in (steep, tiny_mu)
                              for side in ("P", "C")]

    def test_one_command(self, tmp_path):
        self.write(tmp_path, "parent", "a.csv", "t,m\n0,1\n")
        self.write(tmp_path, "change", "a.csv", "t,m\n0,1\n")
        self.write(tmp_path, "change", "b.csv", "t\n0\n")
        runs = {"parent": {"exit": 0, "stdout": ["c_star=0.6", "wrote <out>/a.csv"]},
                "change": {"exit": 4, "stdout": ["c_star=0.7", "wrote <out>/a.csv"]}}
        dirs = {side: tmp_path / side for side in ("parent", "change")}
        assert bench_pairs.compare_outputs(dirs, runs) == {
            "exit": {"parent": 0, "change": 4},
            "stdout": [{"parent": "c_star=0.6", "change": "c_star=0.7"}, "identical"],
            "files": {"a.csv": "identical",
                      "b.csv": {"exists": {"parent": False, "change": True}}}}
