import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gammalog
from gammalog import cli
from gammalog.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "[]p->p")
    assert code == 0
    assert out.strip() == "[]p -> p"


def test_parse_usage_error(capsys):
    code, _, err = run(capsys, "parse", "p &")
    assert code == 2
    assert "error" in err


def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", "--logic", "S4", "[]p -> p")
    assert code == 0
    assert out.strip() == "Valid"


def test_check_invalid_with_countermodel_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "cm.json"
    code, out, _ = run(
        capsys, "check", "--logic", "S4", "--out", str(out_file), "<>[]p -> []<>p"
    )
    assert code == 1
    assert "Invalid" in out
    from gammalog.kripke import load_model, satisfies
    from gammalog.syntax import parse
    model = load_model(str(out_file))
    data = json.loads(out_file.read_text())
    world = next(
        line.split()[-1] for line in out.splitlines() if line.startswith("Invalid")
    )
    assert not satisfies(model, world, parse("<>[]p -> []<>p"))
    assert data["closure"] == "strict"


def test_check_s42_alias(capsys):
    code, out, _ = run(capsys, "check", "--logic", "G(KC,w,w)", "<>[]p -> []<>p")
    assert code == 0 and out.strip() == "Valid"


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "--logic", "Grz", "[]p -> p")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 1 and payload["verdict"] == "valid"


def test_check_bad_logic(capsys):
    code, _, err = run(capsys, "check", "--logic", "G(Nope,1,1)", "p")
    assert code == 2 and "bad logic" in err


def test_countermodel_command(capsys):
    code, out, _ = run(capsys, "countermodel", "--logic", "S4", "--max-worlds", "3",
                       "<>[]p -> []<>p")
    assert code == 0
    assert "refutes" in out
    code, out, _ = run(capsys, "countermodel", "--logic", "S4", "[]p -> p")
    assert code == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_countermodel_bound_below_one_is_a_usage_error(capsys, bound, fmt):
    code, out, err = run(capsys, "--format", fmt, "countermodel", "--logic", "S4",
                         "--max-worlds", bound, "<>[]p -> []<>p")
    assert code == 2
    assert out == ""
    assert err == "error: --max-worlds must be at least 1\n"


def test_interpolate_command(capsys):
    code, out, _ = run(capsys, "interpolate", "--logic", "G(Int,2,2)", "p & q", "p | r")
    assert code == 0
    assert "interpolant: p" in out
    code, out, _ = run(capsys, "interpolate", "--logic", "S4", "p", "q")
    assert code == 1
    assert "not valid" in out


def test_frame_formula_command(capsys):
    code, out, _ = run(capsys, "frame-formula", "--cluster", "1")
    assert code == 0
    assert out.strip() == "~(p0 & []p0 & [](p0 -> <>p0))"
    code, out2, _ = run(capsys, "frame-formula", "--cluster", "2", "--topped")
    assert code == 0 and out2.startswith("~(p0 & [](p0 | p1 | p2)")


def test_refine_command(capsys, tmp_path):
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps({
        "worlds": ["a", "b", "c"],
        "order": [[x, y] for x in "abc" for y in "abc"],
        "valuation": {"p": ["a", "b", "c"]},
        "closure": "strict",
    }))
    sigma_file = tmp_path / "sigma.txt"
    sigma_file.write_text("[]p\np  # the boxed member and its core\n")
    out_file = tmp_path / "refined.json"
    code, out, _ = run(capsys, "refine", str(model_file), "--sigma", str(sigma_file),
                       "--m", "1", "--n", "1", "--out", str(out_file))
    assert code == 0
    assert "kept" in out
    refined = json.loads(out_file.read_text())
    assert len(refined["worlds"]) == 3


def test_smorynski_command(capsys, tmp_path):
    sigma = tmp_path / "seeds.txt"
    sigma.write_text("p\n")
    out_file = tmp_path / "smor.json"
    code, out, _ = run(capsys, "smorynski", "--logic", "S4", "--sigma1", str(sigma),
                       "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["worlds"] and all(w.startswith("{") for w in payload["worlds"])


def test_smorynski_over_budget_exits_unknown(capsys, tmp_path):
    (tmp_path / "pq.txt").write_text("p & q\n")
    (tmp_path / "p.txt").write_text("p\n")
    code, out, err = run(capsys, "--format", "json", "smorynski", "--logic", "S4",
                         "--sigma1", str(tmp_path / "pq.txt"),
                         "--sigma2", str(tmp_path / "p.txt"), "--max-closure", "5")
    assert code == 3
    assert json.loads(out) == {"v": 1, "error": "type space needs 20 letters (cap 5)"}
    assert err == ""


DEEP_INPUTS = {"not-x400": "~" * 400 + "p", "parens-x1200": "(" * 1200 + "p" + ")" * 1200}
DEEP_ERROR = "formula nested too deeply (maximum recursion depth exceeded)"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("deep", sorted(DEEP_INPUTS))
@pytest.mark.parametrize("command", [["parse"], ["check", "--logic", "S4"]], ids=["parse", "check"])
def test_deep_formula_exits_unknown(capsys, command, deep, fmt):
    code, out, err = run(capsys, "--format", fmt, *command, DEEP_INPUTS[deep])
    assert code == 3
    if fmt == "json":
        assert json.loads(out) == {"v": 1, "error": DEEP_ERROR}
    else:
        assert out == f"error: {DEEP_ERROR}\n"
    assert err == ""


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "37 with Craig interpolation, 49 with deductive interpolation" in out
    code, out, _ = run(capsys, "--format", "json", "catalog")
    payload = json.loads(out)
    assert payload["cip_count"] == 37 and payload["dip_count"] == 49


def test_selftest_command_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "counts", "--suite", "axioms")
    assert code == 0
    assert out.count("PASS") == 2


def test_selftest_unknown_suite(capsys):
    code, _, err = run(capsys, "selftest", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path):
    # a usage error, help and three different subcommands in one process
    # print what each prints alone in a fresh process, and again under
    # python -O, which strips asserts: verification never depends on them
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("p & []q\n", encoding="utf-8")
    calls = [
        ["check", "[]p -> p"],
        ["countermodel", "--help"],
        ["check", "--logic", "S4", "[]p -> p"],
        ["--format", "json", "countermodel", "--logic", "S4", "--max-worlds", "3",
         "<>[]p -> []<>p"],
        ["smorynski", "--logic", "S4.2", "--sigma1", str(sigma)],
    ]
    cli._parser.cache_clear()
    together = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in together] == [2, 0, 0, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gammalog.__file__).parents[1]))
    for flags in ([], ["-O"]):
        for argv, result in zip(calls, together):
            alone = subprocess.run(
                [sys.executable, *flags, "-m", "gammalog.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (alone.returncode, alone.stdout, alone.stderr) == result, (flags, argv)


def test_deterministic_output(capsys):
    first = run(capsys, "check", "--logic", "S4", "<>[]p -> []<>p")
    second = run(capsys, "check", "--logic", "S4", "<>[]p -> []<>p")
    assert first == second


# Printed witnesses pinned byte for byte, so that a change to the engine
# cannot alter them unnoticed. The S4.2 model includes the u000000 copy of
# its final cluster.
GOLDEN_CHECK = {
    ("S4", "<>[]p -> []<>p"): (
        '{"model": {"closure": "strict", "order": [["t000000", "t000000"], '
        '["t000000", "t000001"], ["t000000", "t000002"], ["t000000", '
        '"t000003"], ["t000000", "t000004"], ["t000000", "t000005"], '
        '["t000000", "t000006"], ["t000000", "t000007"], ["t000000", '
        '"t000008"], ["t000000", "t000009"], ["t000001", "t000000"], '
        '["t000001", "t000001"], ["t000001", "t000002"], ["t000001", '
        '"t000003"], ["t000001", "t000004"], ["t000001", "t000005"], '
        '["t000001", "t000006"], ["t000001", "t000007"], ["t000001", '
        '"t000008"], ["t000001", "t000009"], ["t000002", "t000002"], '
        '["t000002", "t000003"], ["t000002", "t000004"], ["t000002", '
        '"t000008"], ["t000002", "t000009"], ["t000003", "t000002"], '
        '["t000003", "t000003"], ["t000003", "t000004"], ["t000003", '
        '"t000008"], ["t000003", "t000009"], ["t000004", "t000004"], '
        '["t000005", "t000005"], ["t000005", "t000006"], ["t000005", '
        '"t000007"], ["t000005", "t000008"], ["t000005", "t000009"], '
        '["t000006", "t000005"], ["t000006", "t000006"], ["t000006", '
        '"t000007"], ["t000006", "t000008"], ["t000006", "t000009"], '
        '["t000007", "t000007"], ["t000008", "t000008"], ["t000008", '
        '"t000009"], ["t000009", "t000008"], ["t000009", "t000009"]], '
        '"valuation": {"p": ["t000001", "t000003", "t000006", "t000007", '
        '"t000009"]}, "worlds": ["t000000", "t000001", "t000002", "t000003", '
        '"t000004", "t000005", "t000006", "t000007", "t000008", "t000009"]}, '
        '"v": 1, "verdict": "invalid", "world": "t000000"}'
    ),
    ("S4.2", "<>p -> []<>p"): (
        '{"model": {"closure": "strict", "order": [["t000000", "t000000"], '
        '["t000000", "t000001"], ["t000000", "t000002"], ["t000000", '
        '"u000000"], ["t000001", "t000000"], ["t000001", "t000001"], '
        '["t000001", "t000002"], ["t000001", "u000000"], ["t000002", '
        '"t000002"], ["t000002", "u000000"], ["u000000", "u000000"]], '
        '"valuation": {"p": ["t000001"]}, "worlds": ["t000000", "t000001", '
        '"t000002", "u000000"]}, "v": 1, "verdict": "invalid", "world": '
        '"t000000"}'
    ),
}
GOLDEN_SMORYNSKI_S42_P_Q_SHA256 = (
    "47af98d57c0095d19a9e78d61fabd17405dfe1010743dbc994f4309025060b5a"
)


def test_witness_output_is_pinned(capsys, tmp_path):
    for (logic, formula), expected in GOLDEN_CHECK.items():
        code, out, _ = run(capsys, "--format", "json", "check", "--logic", logic, formula)
        assert code == 1
        assert out == expected + "\n", (logic, formula)
    (tmp_path / "p.txt").write_text("p\n")
    (tmp_path / "q.txt").write_text("q\n")
    code, out, _ = run(capsys, "smorynski", "--logic", "S4.2",
                       "--sigma1", str(tmp_path / "p.txt"),
                       "--sigma2", str(tmp_path / "q.txt"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SMORYNSKI_S42_P_Q_SHA256


@pytest.mark.parametrize("command", ["check", "countermodel"])
def test_countermodel_roundtrip_mismatch_exits_unknown(capsys, monkeypatch, command):
    from gammalog import kripke

    # the reloaded model loses its valuation, so it no longer refutes
    monkeypatch.setattr(
        kripke, "model_from_dict",
        lambda data: kripke.PreorderModel(data["worlds"], data["order"], {}),
    )
    code, out, _ = run(capsys, "--format", "json", command, "--logic", "S4",
                       "<>[]p -> []<>p")
    assert code == 3
    assert "round-trip" in json.loads(out)["error"]
