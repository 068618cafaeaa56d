import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from symshift import cli
from symshift import grid2d as G
from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift.errors import SymshiftError
from test_verify import SMALL_CONFIG


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def golden_spec(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}))
    return str(path)


@pytest.fixture()
def sgap_spec(tmp_path):
    path = tmp_path / "sgap.json"
    path.write_text(json.dumps({"type": "sgap", "finite": [0, 1]}))
    return str(path)


@pytest.fixture()
def hardsq_files(tmp_path):
    spec = tmp_path / "hs.json"
    spec.write_text(
        json.dumps(
            {
                "type": "grid2d",
                "alphabet": ["0", "1"],
                "forbidden": [
                    {"cells": [[0, 0, "1"], [1, 0, "1"]]},
                    {"cells": [[0, 0, "1"], [0, 1, "1"]]},
                ],
            }
        )
    )
    v = tmp_path / "one.json"
    v.write_text(json.dumps({"cells": [[0, 0, "1"]]}))
    w = tmp_path / "zero.json"
    w.write_text(json.dumps({"cells": [[0, 0, "0"]]}))
    return str(spec), str(v), str(w)


def payload(result):
    assert result.output, result.exception
    return json.loads(result.output)


class TestBasicCommands:
    def test_entropy(self, runner, golden_spec):
        result = runner.invoke(cli.main, ["entropy", "--spec", golden_spec])
        assert result.exit_code == 0
        out = payload(result)
        assert out["lambda"] == pytest.approx(1.618033988749895, abs=1e-9)

    def test_count(self, runner, golden_spec):
        result = runner.invoke(cli.main, ["count", "--spec", golden_spec, "-n", "7"])
        assert payload(result)["count"] == 34

    def test_enumerate(self, runner, golden_spec):
        result = runner.invoke(cli.main, ["enumerate", "--spec", golden_spec, "-n", "2"])
        assert payload(result)["words"] == ["00", "01", "10"]

    def test_member(self, runner, sgap_spec):
        result = runner.invoke(cli.main, ["member", "--spec", sgap_spec, "1001"])
        assert result.exit_code == 0
        assert payload(result)["member"] is False

    def test_extender_cmp(self, runner, golden_spec):
        result = runner.invoke(cli.main, ["extender", "cmp", "--spec", golden_spec, "1", "0"])
        assert payload(result)["relation"] == "proper-subset"

    def test_mme_sgap_certificate(self, runner, sgap_spec):
        result = runner.invoke(cli.main, ["mme", "--spec", sgap_spec, "11"])
        out = payload(result)
        assert out["mu"] == pytest.approx(0.4472135954999579, abs=1e-9)
        assert out["certificate"] == {"offset": 0, "coeffs": [0, 1]}

    def test_mme_long_word(self, runner, sgap_spec):
        # 1000 zeros used to end in a RecursionError traceback
        result = runner.invoke(cli.main, ["mme", "--spec", sgap_spec, "0" * 1000])
        assert result.exit_code == 0
        value, cert = M.sgap_mu(S.SGapSet((0, 1)), "0" * 1000)
        assert payload(result)["certificate"] == {"offset": cert.offset, "coeffs": list(cert.coeffs)}

    def test_replace(self, runner):
        result = runner.invoke(cli.main, ["replace", "0101", "01", "001", "-p", "0", "-p", "2"])
        assert payload(result)["result"] == "001001"

    def test_respects_with_oracle(self, runner):
        result = runner.invoke(cli.main, ["respects", "11", "1", "--bounded", "5"])
        out = payload(result)
        assert out["respects"] is False
        assert out["agrees"] is True
        assert out["witness"]["condition"] == "iv"

    def test_respects_oracle_rejects_foreign_symbols(self, runner):
        # "22" occurs in no binary word, so a sweep would pass vacuously
        result = runner.invoke(cli.main, ["respects", "22", "2", "--bounded", "8"])
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "InvalidWordError"


    def test_respects_oracle_refusal_is_a_json_error(self, runner):
        # about 2^20001 words: the count is past Python's int-to-str limit
        result = runner.invoke(cli.main, ["respects", "11", "1", "--bounded", "20000"])
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "ResourceLimitError"


    def test_count_over_budget_is_a_json_error(self, runner, golden_spec):
        # 10^7 steps of the big-integer DP would run for hours
        result = runner.invoke(cli.main, ["count", "--spec", golden_spec, "-n", "10000000"])
        assert result.exit_code == 1
        error = payload(result)["error"]
        assert error["type"] == "ResourceLimitError" and error["message"].startswith("n 10000000")


class TestVerifyRun:
    CONFIG = {
        "maxlen_pairs": 3,
        "maxlen_value": 4,
        "limit_n": 40,
        "limit_exact_n": 10,
        "synch_maxgap": 20,
        "synch_words": ["0"],
        "hereditary_nmax": 3,
        "replacement_v_maxlen": 1,
        "replacement_u_maxlen": 5,
        "strip_widths": [4],
        "sgap_specs": [{"type": "sgap", "finite": [0, 1]}],
        "pair_specs": [{"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}],
        "hereditary_specs": [{"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}],
    }

    def test_run_writes_report_and_csv(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "report.json"
        csv_dir = tmp_path / "csv"
        result = runner.invoke(
            cli.main,
            ["verify", "run", "--config", str(config), "--out", str(out), "--csv", str(csv_dir)],
        )
        assert result.exit_code == 0, result.output
        assert payload(result)["passed"] is True
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert list(csv_dir.iterdir())

    def test_bad_config_is_an_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": True}))
        result = runner.invoke(cli.main, ["verify", "run", "--config", str(config)])
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "SpecFormatError"

    def test_mistyped_config_is_an_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"replacement_u_maxlen": "8"}))
        result = runner.invoke(cli.main, ["verify", "run", "--config", str(config)])
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "SpecFormatError"

    def test_sweep_over_budget_is_an_error_record(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(self.CONFIG, replacement_u_maxlen=30)))
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["verify", "run", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 1
        assert payload(result)["checks"]["error"] == 1
        errors = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "error"]
        assert [c["name"] for c in errors] == ["replacement-lemmas"]
        assert errors[0]["reason"].startswith("ResourceLimitError")

    def test_strip_width_over_cap_is_an_error_record(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(self.CONFIG, strip_widths=[100])))
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["verify", "run", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 1
        assert payload(result)["checks"]["error"] == 1
        errors = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "error"]
        assert [c["name"] for c in errors] == ["gtheorem-strips"]
        assert errors[0]["reason"].startswith("ResourceLimitError")

    @pytest.mark.parametrize(
        "flag, target",
        [("--out", "missing/report.json"), ("--out", "."), ("--csv", "report.json")],
    )
    def test_bad_output_path_is_a_usage_error(self, runner, tmp_path, monkeypatch, flag, target):
        # checked before the suite runs: run_all must not be reached
        (tmp_path / "report.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(V, "run_all", lambda *args: pytest.fail("suite ran"))
        result = runner.invoke(cli.main, ["verify", "run", flag, target])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{flag}'" in result.output


PINNED_DATA = Path(__file__).parent / "data"
# float tolerances of the pinned report; TestPinnedReport says why
PINNED_REL_TOL, PINNED_ABS_TOL = 1e-12, 1e-14


def _pinned_differences(got, want, where="report"):
    """The places where ``got`` differs from the pinned ``want``: keys, list
    lengths, types, strings, ints and bools must be equal, and floats agree
    within ``PINNED_REL_TOL`` / ``PINNED_ABS_TOL``."""
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=PINNED_REL_TOL, abs_tol=PINNED_ABS_TOL)
        return [] if close else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _pinned_differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _pinned_differences(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


class TestPinnedReport:
    """The default ``verify run`` report and its CSVs, against the report
    committed in tests/data/default_report.json (written by the console
    script, minus ``meta.timestamps``).  A change that moves a value
    regenerates the file and names the moved fields in CHANGES.md.

    Names, statuses, reasons, params, witnesses, series keys, ints and
    strings must be equal.  The 503 floats of the checks are cylinder
    measures, scaled counts and residuals, each a chain of float operations
    on numbers of order 1: a numpy or BLAS build that sums in another order
    moves them by a few ulps.  So they agree to a relative 1e-12
    (``PINNED_REL_TOL``), which still catches any change of method, and an
    absolute 1e-14 (``PINNED_ABS_TOL``, about 45 ulps of 1.0), which
    catches a residual that widens from its noise floor (at most 4.3e-15
    here) towards the tightest check tolerance, 1e-12.  On a 2-CPU Linux
    box the report was byte-identical with OPENBLAS_NUM_THREADS 1 and 2;
    the CI job on the numpy 1.24 floor has not been measured, so the
    tolerance there is an estimate.
    """

    report, config, csvs = "default_report.json", None, 11

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pinned")
        out, csv_dir = tmp / "report.json", tmp / "csv"
        args = ["verify", "run", "--out", str(out), "--csv", str(csv_dir)]
        if self.config is not None:
            (tmp / "config.json").write_text(json.dumps(self.config))
            args += ["--config", str(tmp / "config.json")]
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text()), csv_dir

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads((PINNED_DATA / self.report).read_text(encoding="utf-8"))

    def test_report_matches(self, written, pinned):
        report, _ = written
        assert set(report["meta"].pop("timestamps")) == {"finished", "elapsed_s"}
        assert _pinned_differences(report, pinned) == []

    def test_csvs_match(self, written, pinned):
        _, csv_dir = written
        expected = {}
        for check in pinned["checks"]:
            for key, series in check["series"].items():
                slug = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{check['name']}.{key}")
                expected[slug + ".csv"] = series
        assert len(expected) == self.csvs
        assert sorted(p.name for p in csv_dir.iterdir()) == sorted(expected)
        for name, series in expected.items():
            header, *lines = (csv_dir / name).read_text(encoding="utf-8").splitlines()
            assert header == ",".join(series["columns"]), name
            cells = [line.split(",") for line in lines]
            # each cell read back as the type of its pinned value
            got = [[type(want)(cell) for cell, want in zip(row, pinned_row)]
                   for row, pinned_row in zip(cells, series["rows"])]
            assert [len(row) for row in cells] == [len(row) for row in series["rows"]], name
            assert _pinned_differences(got, series["rows"], name) == []


class TestPinnedSmallReport(TestPinnedReport):
    """The same pin on ``SMALL_CONFIG``'s report, tests/data/small_report.json,
    written by the console script with ``--config``."""

    report, config, csvs = "small_report.json", SMALL_CONFIG, 4


class TestGrid2d:
    def test_check_gtheorem(self, runner, hardsq_files):
        spec, v, w = hardsq_files
        result = runner.invoke(
            cli.main,
            ["grid2d", "check-gtheorem", "--spec", spec, "--v", v, "--w", w, "--widths", "4,6"],
        )
        assert result.exit_code == 0, result.output
        out = payload(result)
        assert out["status"] == "pass"
        assert len(out["series"]["strip"]) == 2

    def test_no_widths_is_skipped_and_valid_json(self, runner, hardsq_files):
        spec, v, w = hardsq_files
        result = runner.invoke(
            cli.main,
            ["grid2d", "check-gtheorem", "--spec", spec, "--v", v, "--w", w, "--widths", ""],
        )
        assert result.exit_code == 0, result.output

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        out = json.loads(result.output, parse_constant=reject)
        assert out["status"] == "skipped"
        assert out["residuals"] == {}

    def test_foreign_pattern_symbol_is_an_error(self, runner, hardsq_files, tmp_path):
        spec, _, w = hardsq_files
        foreign = tmp_path / "two.json"
        foreign.write_text(json.dumps({"cells": [[0, 0, "2"]]}))
        result = runner.invoke(
            cli.main, ["grid2d", "check-gtheorem", "--spec", spec, "--v", str(foreign), "--w", w]
        )
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "InvalidWordError"

    def test_needs_grid_spec(self, runner, golden_spec, hardsq_files):
        _, v, w = hardsq_files
        result = runner.invoke(
            cli.main,
            ["grid2d", "check-gtheorem", "--spec", golden_spec, "--v", v, "--w", w],
        )
        assert result.exit_code == 1
        assert payload(result)["error"]["type"] == "SpecFormatError"


class TestErrorMapping:
    # how each file kind is named in the error message
    WHAT = {"spec": "spec file", "pattern": "pattern file", "config": "config"}

    @staticmethod
    def _invoke_with(runner, hardsq_files, kind, path):
        spec, v, w = hardsq_files
        args = {
            "spec": ["entropy", "--spec", path],
            "pattern": ["grid2d", "check-gtheorem", "--spec", spec, "--v", path, "--w", w],
            "config": ["verify", "run", "--config", path],
        }[kind]
        return runner.invoke(cli.main, args)

    @pytest.mark.parametrize("kind", ["spec", "pattern", "config"])
    def test_missing_spec_file(self, runner, hardsq_files, kind):
        result = self._invoke_with(runner, hardsq_files, kind, "nope.json")
        assert result.exit_code == 1
        error = payload(result)["error"]
        assert error["type"] == "SpecFormatError"
        assert error["message"].startswith(f"cannot read {self.WHAT[kind]}: ")

    @pytest.mark.parametrize("kind", ["spec", "pattern", "config"])
    def test_invalid_json_spec(self, runner, hardsq_files, tmp_path, kind):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = self._invoke_with(runner, hardsq_files, kind, str(bad))
        assert result.exit_code == 1
        assert payload(result)["error"]["message"].startswith(
            f"{self.WHAT[kind]} is not valid JSON: "
        )

    def test_semantic_spec_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "sgap", "finite": []}))
        result = runner.invoke(cli.main, ["entropy", "--spec", str(bad)])
        assert result.exit_code == 1

    def test_usage_error_exit_2(self, runner):
        result = runner.invoke(cli.main, ["no-such-command"])
        assert result.exit_code == 2


MALFORMED_SPECS = [
    {"type": "sgap", "finite": 5},
    {"type": "sgap", "finite": ["a"]},
    {"type": "sgap", "extra": [], "from": "x"},
    {"type": "sgap", "finite": [1.5]},
    {"type": "sgap", "finite": [True]},
    {"type": "sft", "alphabet": ["0", "1"], "forbidden": [5]},
    {"type": "sft", "alphabet": [1, 2], "forbidden": ["1"]},
    {"type": "grid2d", "alphabet": 5, "forbidden": []},
    {"type": "grid2d", "alphabet": ["0", "1"], "forbidden": 5},
    {"type": "grid2d", "alphabet": ["0", "1"], "forbidden": [{"cells": 5}]},
    {"type": "grid2d", "alphabet": ["0", "1"], "forbidden": [{"cells": [[True, 0, "1"]]}]},
]


@pytest.mark.parametrize("doc", MALFORMED_SPECS, ids=json.dumps)
def test_malformed_spec_is_a_typed_error(runner, tmp_path, doc):
    if doc["type"] == "grid2d":
        with pytest.raises(SymshiftError):
            G.grid_spec_from_dict(doc)
    else:
        with pytest.raises(SymshiftError):
            S.spec_from_dict(doc)
        # run_all parses each spec inside its check: the bad one gives two error
        # records, and the 25 checks of the other specs still run
        report = V.run_all({"pair_specs": [doc]})
        assert len(report.records) == 27
        errors = [r for r in report.records if r.status == "error"]
        assert [r.name for r in errors] == ["main-inequality", "equality-corollary"]
        assert all(r.reason.startswith(("SpecFormatError", "InvalidWordError")) for r in errors)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(cli.main, ["entropy", "--spec", str(path)])
    assert result.exit_code == 1
    assert payload(result)["error"]["type"] in ("SpecFormatError", "InvalidWordError")
