"""Command-line contract: documents, exit codes, deterministic artifacts."""
from __future__ import annotations

import json

import pytest

from fixdiv.cli import ConfigDocumentError, main, parse_config_document
from fixdiv.report import SURVIVOR_CSV_HEADER, canonical_json, fmt_rational, parse_rational


def bm_document(d=2, **overrides):
    doc = {
        "n": 2,
        "gram": [[0, d], [d, -2]],
        "basis": ["M", "B"],
        "mobile": "M",
        "components": [{"label": "B", "multiplicity": 1}],
        "m_primitive": "no",
    }
    doc.update(overrides)
    return doc


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- document parsing ------------------------------------------------------------


def test_parse_document_roundtrip():
    cfg = parse_config_document(bm_document())
    assert cfg.labels == ("M", "B")
    assert cfg.multiplicities == (1,)


def test_parse_document_permutes_mobile_first():
    doc = {
        "n": 2,
        "gram": [[-2, 2], [2, 0]],
        "basis": ["B", "M"],
        "mobile": "M",
        "components": [{"label": "B", "multiplicity": 1}],
    }
    cfg = parse_config_document(doc)
    assert cfg.labels == ("M", "B")
    assert [[int(x) for x in row] for row in cfg.gram.entries] == [[0, 2], [2, -2]]


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"surprise": 1}, "unknown fields"),
        ({"gram": [[0, 1], [2, -2]]}, "symmetric"),
        ({"basis": ["M"]}, "length"),
        ({"mobile": "X"}, "not in basis"),
        ({"components": [{"label": "M", "multiplicity": 1}]}, "repeated or mobile"),
        ({"components": []}, "cover the basis"),
        ({"components": [{"label": "B", "multiplicity": 0}]}, "multiplicity"),
        ({"n": 0}, "positive integer"),
        ({"rr": {"preset": "enriques"}}, "rr"),
        ({"a_ample": "yes"}, "boolean"),
        # a JSON boolean is not an integer, though Python's bool is an int
        ({"n": True}, "positive integer"),
        ({"components": [{"label": "B", "multiplicity": True}]}, "bad multiplicity"),
        ({"mobile": True}, "bad index"),
        # malformed tables: non-square, ragged, a zero denominator
        ({"gram": [[0, 2, 1], [2, -2, 0]]}, "must be square: row 0 has 3 entries"),
        ({"gram": [[0, 2], [2]]}, "must be square: row 1 has 1 entries"),
        ({"gram": [[0, "2/0"], ["2/0", -2]]}, "denominator 0"),
        ({"gram": [0, 2]}, "list of rows"),
    ],
)
def test_parse_document_rejections(mutation, message):
    with pytest.raises(ConfigDocumentError, match=message):
        parse_config_document(bm_document(**mutation))


def test_parse_document_missing_required_field():
    doc = bm_document()
    del doc["gram"]
    with pytest.raises(ConfigDocumentError, match="missing required field"):
        parse_config_document(doc)


# -- classify exit codes ---------------------------------------------------------


def test_classify_prime_fixed_exit_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["classify", write(tmp_path, bm_document()), "--report", str(report)])
    assert code == 0
    assert "PrimeFixed" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["kind"] == "PrimeFixed" and doc["q_b"] == "-2"


def test_classify_chain_exit_zero(tmp_path, capsys):
    doc = {
        "n": 2,
        "gram": [[0, 2, 0], [2, -4, 2], [0, 2, -2]],
        "basis": ["M", "B1", "B2"],
        "mobile": "M",
        "components": [
            {"label": "B1", "multiplicity": 1},
            {"label": "B2", "multiplicity": 1},
        ],
        "m_primitive": "yes",
    }
    code = main(["classify", write(tmp_path, doc)])
    assert code == 0
    assert "Chain" in capsys.readouterr().out


def test_classify_contradiction_exit_one(tmp_path, capsys):
    doc = {
        "n": 2,
        "gram": [[0, 0, 1], [0, -10, 5], [1, 5, -2]],
        "basis": ["M", "B1", "B2"],
        "mobile": "M",
        "components": [
            {"label": "B1", "multiplicity": 1},
            {"label": "B2", "multiplicity": 2},
        ],
    }
    code = main(["classify", write(tmp_path, doc)])
    assert code == 1
    assert "step1-multiplicity" in capsys.readouterr().out


def test_classify_parse_error_exit_two(tmp_path, capsys):
    code = main(["classify", write(tmp_path, bm_document(gram=[[0, 1], [2, -2]]))])
    assert code == 2
    assert "symmetric" in capsys.readouterr().err


def test_classify_setup_error_exit_two(tmp_path, capsys):
    code = main(["classify", write(tmp_path, bm_document(d=1))])
    assert code == 2
    assert "q(A) > 0" in capsys.readouterr().err


def test_classify_boolean_integers_exit_two(tmp_path, capsys):
    doc = bm_document(n=True, components=[{"label": "B", "multiplicity": True}])
    assert main(["classify", write(tmp_path, doc)]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_half_integral_square_exit_two(tmp_path, capsys):
    doc = bm_document(gram=[[0, "3/2"], ["3/2", "-3/2"]], mode="general")
    assert main(["classify", write(tmp_path, doc)]) == 2
    assert "negative integer square" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gram,message",
    [
        ([[0, 2, 1], [2, -2, 0]], "must be square"),
        ([[0, 2], [2]], "must be square"),
        ([[0, "2/0"], ["2/0", -2]], "denominator 0"),
    ],
)
def test_classify_malformed_gram_exit_two(tmp_path, capsys, gram, message):
    assert main(["classify", write(tmp_path, bm_document(gram=gram))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


GENERAL_CHAIN = {
    "n": 2,
    "gram": [[0, 2, 0], [2, -4, 2], [0, 2, -1]],
    "basis": ["M", "B1", "B2"],
    "components": [
        {"label": "B1", "multiplicity": 1},
        {"label": "B2", "multiplicity": 1},
    ],
    "m_primitive": "yes",
    "mode": "general",
}


def test_classify_general_mode_chain_with_odd_terminal_square(tmp_path, capsys):
    # the chain target is built in the document's own mode, where q_last = -1
    # is allowed
    report = tmp_path / "report.json"
    assert main(["classify", write(tmp_path, GENERAL_CHAIN), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["kind"], doc["k"], doc["d"], doc["q_last"]) == ("Chain", 1, "-4", "-1")


def test_classify_unreadable_input_exit_two(tmp_path, capsys):
    code = main(["classify", str(tmp_path / "missing.json")])
    assert code == 2


# -- enumerate -------------------------------------------------------------------


def test_enumerate_writes_deterministic_artifacts(tmp_path, capsys, monkeypatch):
    args = [
        "enumerate", "--max-components", "2", "--entry-bound", "4",
        "--square-min", "-4", "--even",
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HK_THREADS", "2")
    assert main(args + ["--out-csv", "a.csv", "--out-json", "a.json"]) == 0
    monkeypatch.setenv("HK_THREADS", "1")
    assert main(args + ["--out-csv", "b.csv", "--out-json", "b.json"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == SURVIVOR_CSV_HEADER
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["counterexamples"] == []
    assert summary["survivor_count"] == len(summary["survivors"])


def test_enumerate_general_mode_certifies_chains(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HK_THREADS", "1")
    code = main([
        "enumerate", "--general", "--max-components", "2", "--entry-bound", "3",
        "--square-min", "-4",
    ])
    assert code == 0
    summary = json.loads((tmp_path / "survivors.json").read_text())
    assert summary["counterexamples"] == []
    chains = sorted(
        (s["classification"]["d"], s["classification"]["q_last"])
        for s in summary["survivors"]
        if s["classification"]["kind"] == "Chain"
    )
    # odd squares and -d/2 halves occur only in general mode
    assert chains == [("-2", "-1"), ("-3", "-1"), ("-4", "-1"), ("-4", "-2")]


# SHA-256 of `fixdiv enumerate` output, recorded before the lattice core moved
# onto integer arithmetic: the survivors and their certificates must not change
ENUMERATE_GOLDEN = [
    (
        ["--max-components", "3", "--entry-bound", "3", "--square-min", "-6"],
        "f8712615685ad8b5bca5289b0d6c31d5697c930df9bda76dff9674a6c17b5b05",
        "907e538cca9e5d71218db8374e8520705c88fb756619e1c8a532a5caae5ee53c",
    ),
    (
        ["--rr-preset", "k3n", "--max-components", "2", "--entry-bound", "4", "--square-min", "-4"],
        "7ff6e4c46eaa66f57d1d43b4afe2af6dd0a487364b8adc03a9325eed45b5dd64",
        "45f85b191fe377c81f04be423d74770d46ca1e7ca0115c652fc9344eec8211f3",
    ),
]


@pytest.mark.parametrize("bounds,csv_sha,json_sha", ENUMERATE_GOLDEN)
def test_enumerate_output_is_pinned(tmp_path, capsys, monkeypatch, bounds, csv_sha, json_sha):
    import hashlib

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HK_THREADS", "1")
    assert main(["enumerate", *bounds]) == 0
    assert hashlib.sha256((tmp_path / "survivors.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "survivors.json").read_bytes()).hexdigest() == json_sha


def test_enumerate_bad_bounds_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "enumerate", "--max-components", "1", "--entry-bound", "4",
        "--square-min", "3",
    ])
    assert code == 2


def test_enumerate_budget_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "enumerate", "--max-components", "2", "--entry-bound", "4",
        "--square-min", "-4", "--budget", "10",
    ])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_enumerate_bad_worker_setting_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HK_THREADS", "two")
    code = main([
        "enumerate", "--max-components", "1", "--entry-bound", "1",
        "--square-min", "-2",
    ])
    assert code == 2
    assert "HK_THREADS" in capsys.readouterr().err


# -- example and rr --------------------------------------------------------------


def test_example_mayer(tmp_path, capsys):
    report = tmp_path / "fixture.json"
    code = main(["example", "mayer", "--d", "3", "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["ok"] is True


def test_example_chain(capsys):
    assert main(["example", "chain", "--k", "2", "--d", "-4", "--q-last", "-2"]) == 0


def test_example_invalid_parameters_exit_two(capsys):
    assert main(["example", "chain", "--k", "0"]) == 2
    assert main(["example", "mayer", "--d", "0"]) == 2


def test_rr_preset_evaluation(capsys):
    assert main(["rr", "--preset", "k3n", "--n", "2", "--eval", "4"]) == 0
    assert "P(4) = 10" in capsys.readouterr().out


def test_rr_invalid_polynomial_exit_one(capsys):
    assert main(["rr", "--coeffs", "2,-1"]) == 1


def test_rr_parse_error_exit_two(capsys):
    assert main(["rr", "--coeffs", "2,x"]) == 2


# -- serialization helpers -------------------------------------------------------


def test_rational_formatting_roundtrip():
    from fractions import Fraction

    for value in (Fraction(3), Fraction(-5, 2), Fraction(0)):
        assert parse_rational(fmt_rational(value)) == value
    with pytest.raises(ValueError):
        parse_rational(True)


def test_canonical_json_is_stable():
    from fractions import Fraction

    doc = {"b": 1, "a": [Fraction(3, 2)]}
    # canonical rendering sorts keys and normalizes rationals
    assert canonical_json(doc) == '{\n  "a": [\n    "3/2"\n  ],\n  "b": 1\n}\n'
