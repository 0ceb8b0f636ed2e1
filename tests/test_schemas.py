"""The shipped JSON schemas, checked against live command output.

Every JSON payload the command line can emit must validate against the
schema published for it in docs/; anything less makes the schemas
decorative.
"""
import contextlib
import io
import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from majent.cli import main

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def load(name):
    return json.loads((DOCS / name).read_text())


def strict_json(text):
    """``text`` parsed as standard JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def capture_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return strict_json(out.getvalue())


SCHEMAS = ("check-record.schema.json", "sweep-report.schema.json", "verify-records.schema.json")


@pytest.mark.parametrize("name", SCHEMAS)
def test_schemas_are_valid_draft_2020_12(name):
    jsonschema.Draft202012Validator.check_schema(load(name))


def test_shared_definitions_do_not_drift():
    # Each schema stands alone, so the definitions they share are copies.
    defs = [load(name)["$defs"] for name in SCHEMAS]
    for key in ("propertyKind", "params", "weights"):
        assert defs[0][key] == defs[1][key] == defs[2][key], key
    # verify-paper writes finite values and no replay key; a sweep may write
    # null values and writes its replay keys.
    loose = ("lhs", "rhs", "margin", "seed", "cell_index", "trial_index")
    verify, sweep = (
        load(name)["$defs"]["counterexample"]
        for name in ("verify-records.schema.json", "sweep-report.schema.json")
    )
    assert verify["properties"].keys() == sweep["properties"].keys()
    for d in (verify, sweep):
        for key in loose:
            del d["properties"][key]
    assert verify == sweep


class TestCheckRecordSchema:
    schema = staticmethod(lambda: load("check-record.schema.json"))

    def test_violation_record_validates(self):
        data = capture_json(
            ["check", "--property", "supermodular",
             "--p", "0.5,0.3,0.1,0.1", "--q", "0.4,0.4,0.2,0",
             "--alpha", "2", "--beta", "3", "--format", "json"]
        )
        jsonschema.validate(data, self.schema())

    def test_meet_only_record_validates(self):
        data = capture_json(
            ["check", "--property", "subadditive",
             "--p", "0.5,0.5", "--q", "0.75,0.25",
             "--alpha", "0.5", "--beta", "1", "--format", "json"]
        )
        jsonschema.validate(data, self.schema())
        assert data["join"] is None

    def test_nan_margin_is_written_as_null(self):
        # 2 * 0.5 ** -1023 overflows inside the power sum: lhs = rhs = inf
        # and the margin is nan; the record stays a violation.
        data = capture_json(
            ["check", "--property", "subadditive", "--p", "0.5,0.5", "--q", "0.5,0.5",
             "--alpha", "-1023", "--beta", "0.5", "--format", "json"]
        )
        jsonschema.validate(data, self.schema())
        assert (data["lhs"], data["rhs"], data["margin"]) == (None, None, None)
        assert data["verdict"] == "violated"

    def test_extra_key_is_rejected(self):
        data = capture_json(
            ["check", "--property", "subadditive",
             "--p", "0.5,0.5", "--q", "0.75,0.25",
             "--alpha", "0.5", "--beta", "1", "--format", "json"]
        )
        data["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, self.schema())


class TestSweepReportSchema:
    def test_report_with_violation_cells_validates(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "alpha_grid = 2\nbeta_grid = 1.5,3\ndims = 3\n"
            "trials_per_cell = 50\n"
        )
        out = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        jsonschema.validate(data, load("sweep-report.schema.json"))
        verdicts = {c["verdict"] for c in data["cells"]}
        assert "violation-found" in verdicts
        assert "theorem-guaranteed" in verdicts

    def test_counterexample_provenance_fields_nullable(self, tmp_path):
        # Reference-pair counterexamples carry null seed and indices;
        # random ones carry integers.  Both must pass.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "alpha_grid = -1\nbeta_grid = 0\ndims = 3\ntrials_per_cell = 25\n"
            "properties = generalized\n"
        )
        out = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        jsonschema.validate(data, load("sweep-report.schema.json"))
        ce = data["cells"][0]["counterexample"]
        assert ce is not None and isinstance(ce["seed"], int)

    def test_infinite_worst_margin_is_written_as_null(self, tmp_path):
        # Every margin of the cell is nan, so the worst margin stays inf, and
        # a nan margin does not hold: trial 0 is the cell's counterexample.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "alpha_grid = 0.9999999999999999\nbeta_grid = -1e308\ndims = 2,3\n"
            "properties = subadditive\ntrials_per_cell = 5\nseed = 1\n"
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["sweep", "--config", str(cfg), "--format", "json"])
        data = strict_json(out.getvalue())
        jsonschema.validate(data, load("sweep-report.schema.json"))
        assert code == 0
        (cell,) = data["cells"]
        assert (cell["worst_margin"], cell["verdict"]) == (None, "violation-found")
        found = cell["counterexample"]
        assert (found["source"], found["trial_index"], found["margin"]) == (
            "reference-pair-1", 0, None,
        )


def test_verify_records_validate():
    data = capture_json(["verify-paper", "--format", "json"])
    jsonschema.validate(data, load("verify-records.schema.json"))


def live_output(schema, tmp_path):
    """(payload, one check record inside it) of the command ``schema`` describes."""
    if schema == "check-record.schema.json":
        data = capture_json(
            ["check", "--property", "supermodular",
             "--p", "0.5,0.3,0.1,0.1", "--q", "0.4,0.4,0.2,0",
             "--alpha", "2", "--beta", "3", "--format", "json"]
        )
        return data, data
    if schema == "verify-records.schema.json":
        data = capture_json(["verify-paper", "--format", "json"])
        return data, data[0]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("alpha_grid = 2\nbeta_grid = 3\ndims = 4\ntrials_per_cell = 5\n")
    data = capture_json(["sweep", "--config", str(cfg), "--format", "json"])
    return data, next(c["counterexample"] for c in data["cells"] if c["counterexample"])


#: Values no writer produces: weights are always floats, and a parameter
#: is always read as finite or as the limit toward 1.
UNWRITTEN = {
    "rational-string-weight": lambda record: record["p"].__setitem__(0, "1/2"),
    "infinite-alpha-kind": lambda record: record["params"].__setitem__("alpha_kind", "infinite"),
    "limit-alpha-beta-kind": lambda record: record["params"].__setitem__("beta_kind", "limit-alpha"),
}


@pytest.mark.parametrize("patch", sorted(UNWRITTEN))
@pytest.mark.parametrize(
    "schema",
    ["check-record.schema.json", "sweep-report.schema.json", "verify-records.schema.json"],
)
def test_values_no_writer_produces_are_rejected(schema, patch, tmp_path):
    data, record = live_output(schema, tmp_path)
    jsonschema.validate(data, load(schema))
    UNWRITTEN[patch](record)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load(schema))
