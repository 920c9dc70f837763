import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("model", [
    {"worlds": [1, "a"], "order": [[1, 1], ["a", "a"]]},
    {"worlds": [["x"]], "order": []},
    # a string or an object where a list of ids belongs
    {"worlds": ["a", "b"], "order": [["a", "a"], ["b", "b"]], "valuation": {"p": "ab"}},
    {"worlds": ["a"], "order": [["a", "a"]], "valuation": {"p": {"a": 1}}},
    {"worlds": "ab", "order": [["a", "a"], ["b", "b"]]},
    {"worlds": ["a", "b"], "order": ["aa", "bb"]},
], ids=["int-world", "list-world", "string-extension", "object-extension", "string-worlds",
        "string-pairs"])
def test_refine_non_string_world_ids_are_a_usage_error(capsys, tmp_path, model):
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps(model))
    sigma_file = tmp_path / "sigma.txt"
    sigma_file.write_text("p\n")
    code, out, err = run(capsys, "refine", str(model_file), "--sigma", str(sigma_file),
                         "--m", "2", "--n", "2")
    assert code == 2
    assert out == "" and err.startswith("error: cannot load model:")


FILE_ERRORS = {
    "refine-missing-sigma": ["refine", "{model}", "--sigma", "{missing}", "--m", "2", "--n", "2"],
    "smorynski-missing-sigma1": ["smorynski", "--logic", "S4", "--sigma1", "{missing}"],
    "refine-model-not-utf8": ["refine", "{latin1}", "--sigma", "{sigma}", "--m", "2", "--n", "2"],
    "refine-sigma-not-utf8": ["refine", "{model}", "--sigma", "{latin1}", "--m", "2", "--n", "2"],
    "refine-model-nested-too-deeply": ["refine", "{deep}", "--sigma", "{sigma}", "--m", "2",
                                       "--n", "2"],
    "check-out-in-missing-dir": ["check", "--logic", "S4", "--out", "{missing}/x.json", "p"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_errors_are_usage_errors(capsys, tmp_path, case, fmt):
    paths = {
        "model": tmp_path / "m.json", "sigma": tmp_path / "sigma.txt",
        "latin1": tmp_path / "latin1.txt", "missing": tmp_path / "missing",
        "deep": tmp_path / "deep.json",
    }
    paths["model"].write_text(json.dumps({"worlds": ["a"], "order": [["a", "a"]]}))
    paths["sigma"].write_text("p\n")
    paths["latin1"].write_bytes("\u00e9 p\n".encode("latin-1"))
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    argv = [arg.format(**paths) for arg in FILE_ERRORS[case]]
    code, out, err = run(capsys, "--format", fmt, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: cannot ") and "Traceback" not in err


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_FORMULA_TOKENS = ["p", "q", "r", "~", "&", "|", "->", "<->", "[]", "<>", "(", ")",
                   "true", "false", " ", "\u25a1", "\u00ac"]
_formulas = st.recursive(
    st.sampled_from(["p", "q", "r", "true", "false"]),
    lambda sub: st.builds("~{}".format, sub) | st.builds("[]{}".format, sub)
    | st.builds("<>{}".format, sub)
    | st.builds("({} {} {})".format, sub, st.sampled_from(["&", "|", "->", "<->"]), sub),
    max_leaves=6,
)
# well-formed formulas, token soup with junk, and formulas with junk spliced in
_formula_texts = (
    _formulas
    | st.lists(st.sampled_from(_FORMULA_TOKENS) | st.text(max_size=2), max_size=10).map("".join)
    | st.tuples(_formulas, st.text(max_size=2), _formulas).map("".join)
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["parse", "check", "countermodel", "interpolate"]),
    logic=st.sampled_from(["S4", "S4.2", "G(Int,1,1)", "G(KC,w,2)"]),
    first=_formula_texts, second=_formula_texts, fmt=st.sampled_from(["text", "json"]),
)
def test_formula_text_never_gives_a_traceback(command, logic, first, second, fmt):
    argv = {
        "parse": ["parse", first],
        "check": ["check", "--logic", logic, "--time-budget", "1", first],
        "countermodel": ["countermodel", "--logic", logic, "--max-worlds", "2", first],
        "interpolate": ["interpolate", "--logic", logic, "--time-budget", "1", first, second],
    }[command]
    assert _quiet_main(["--format", fmt, *argv]) in (0, 1, 2, 3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_world_ids = st.sampled_from(["a", "b", "c"])
_model_objects = st.fixed_dictionaries(
    {
        "worlds": st.just(["a", "b", "c"]) | st.lists(_world_ids, max_size=3) | _json_values,
        "order": st.lists(st.lists(_world_ids, min_size=2, max_size=2), max_size=6)
        | _json_values,
        "closure": st.sampled_from(["auto", "strict"]) | _json_values,
    },
    optional={
        "valuation": st.dictionaries(st.sampled_from(["p", "q"]),
                                     st.lists(_world_ids, max_size=3) | _json_values,
                                     max_size=2),
    },
)


@settings(max_examples=150, deadline=None)
@given(model=_model_objects | _json_values, fmt=st.sampled_from(["text", "json"]))
def test_refine_model_files_never_give_a_traceback(tmp_path_factory, model, fmt):
    folder = tmp_path_factory.mktemp("refine")
    (folder / "m.json").write_text(json.dumps(model), encoding="utf-8")
    (folder / "sigma.txt").write_text("[]p\np\n", encoding="utf-8")
    argv = ["--format", fmt, "refine", str(folder / "m.json"), "--sigma",
            str(folder / "sigma.txt"), "--m", "1", "--n", "1"]
    assert _quiet_main(argv) in (0, 1, 2, 3)


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


def test_output_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    # formulas hash by content, so set and dict order can change with
    # PYTHONHASHSEED; what the CLI prints must not
    (tmp_path / "p.txt").write_text("p\n")
    (tmp_path / "q.txt").write_text("q\n")
    inputs = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs"
    calls = [
        ["check", "--logic", "S4", "<>[]p -> []<>p"],
        ["interpolate", "--logic", "G(KC,2,2)", "<>[]p & <>[]q", "<>[](p & q)"],
        ["countermodel", "--logic", "S4", "--max-worlds", "3", "<>[]p -> []<>p"],
        ["smorynski", "--logic", "S4.2", "--sigma1", str(tmp_path / "p.txt"),
         "--sigma2", str(tmp_path / "q.txt")],
        ["refine", str(inputs / "s42_p_q.json"), "--sigma", str(inputs / "s42_p_q.sigma"),
         "--m", "2", "--n", "2"],
    ]
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(pathlib.Path(gammalog.__file__).parents[1]))
            alone = subprocess.run([sys.executable, "-m", "gammalog.cli", *argv],
                                   capture_output=True, env=env, check=False)
            assert (alone.returncode, alone.stdout) == (code, out.encode()), (seed, argv)


def test_reader_closing_stdout_early_exits_without_a_traceback(tmp_path):
    # the model's JSON line is far longer than a pipe holds, so the CLI is
    # still writing when the reader leaves after a few bytes
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("p & []q\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gammalog.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gammalog.cli", "smorynski", "--logic", "S4.2",
         "--sigma1", str(sigma)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(100).startswith(b'{"closure"')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert err == b""


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
# sha256 of `check --format json --logic S4` on the frame formula of a cluster
# frame of 11 points: the witness is the frame itself, whose world ids sort
# g0, g1, g10, g2, ..., away from the frame's point order
GOLDEN_CLUSTER_WITNESS_SHA256 = {
    ("--cluster", "11"): "f13446822c1b1a753a6e099c1761accc1d9f90e03bc9f9f01b693a18a0337710",
    ("--cluster", "10", "--topped"):
        "287f23f90d67979d2a8c33b53e1598db460d03ecfe17432ab3d4e3689d23ef20",
}


# sha256 of the JSON and the text stdout of `refine` on each committed bench
# input under each bound pair of the refine workload.
GOLDEN_REFINE_SHA256 = {
    ("s4_p_q", "2", "2"): ("855af6491777be5ff3ff9280737b3e235309611520658fff909f6a2078182a0b",
        "ca8c4a5e7d2b58dc6dd5b71b609ecb049a8ee56ace123bf78bd793098c4ddd9a"),
    ("s4_p_q", "w", "2"): ("9e97dd59690615b2cbf828ef2d7bb103571e31e941debc8911ed60e50e947d39",
        "7513cf5321d2fcf8af13fe75d6cd988c861943af4f18b85275e460130fb199dd"),
    ("s4_p_q", "2", "w"): ("61c9f4db33501444ff40dda0189e943cd617045a11aa86deffa315cae9a698c9",
        "925de4d62a1584c37a3235cb50edc62c45e7c1ff68c51394b094c1c76a5a05fc"),
    ("s42_p_q", "2", "2"): ("dacf45d2c441dbccd6a3cdffb2bc7a00a6a95687e9deade6ed9268815fa73a25",
        "f8f777200f41d829dd5fa3fa94bd24fd68e8adc0f608c7de64857c419b4a004d"),
    ("s42_p_q", "w", "2"): ("adb16304a63f7cb9bab2bb336522fd83a143fac48e5d64f920d6ed4da481fcbb",
        "47e43f0be94b6146c2d22054ad040bb73d2f79fea84bdc3c39b4091702e936ab"),
    ("s42_p_q", "2", "w"): ("91c49251a640bb18b3b3cb213bd40e2982b8f7584f8013a4ff703e768d979d6d",
        "77b2fda1f6b33ff7227b3bf348dffb2401945d362fd24edfa5e79c0ed1019933"),
    ("s42_pandq_p", "2", "2"): ("8e1df4ea906c6ecef4858745ceaed3229770efbed49160d774fff342366897ca",
        "14da2640b3521f39e9d8a2c6d1fce3d3f3024a61a5986e404ccb2684a310397b"),
    ("s42_pandq_p", "w", "2"): ("548e0cd246c3f219a219f77a0b975933d68abcb40270a1e4e1bd25342c6aabfb",
        "67674a9750e63f313956b90fc3754b022b736a496b48e9834c23512e2eecd304"),
    ("s42_pandq_p", "2", "w"): ("409cd2317fded0be2960359b37207c9bdf64492a9bb90354b8ff94fddfc57fd2",
        "a449f73856ff6785cb973471c2b5441d767124cabe2b55a6937dfc16a7a41aee"),
    ("s42_boxpandq_p", "2", "2"): ("ec5edcaa6d834348d57aaa347c0938a635dc260c092159c081c67a5f2f7868a4",
        "201ae79db42a5700236db80136846b10ddb5d31c98e85affb410fbc4111f5f71"),
    ("s42_boxpandq_p", "w", "2"): ("dcf58b467e5aff62155ee77897aa6bd3357846ddff4a1e8978538c91850c184d",
        "f4b7cd37a9c79210455778c9eb4c9e3ddeebee54a26b792463a2d472bf46205a"),
    ("s42_boxpandq_p", "2", "w"): ("bca652472e1f2e9d341972c4607e4e7d39e004815bf4c8a07333e918c59465b3",
        "8d9d4c170c6ef456ef052b303b6c13f8385a1af8caab8ae3ea0ee3f5d136f86d"),
    ("s42_diapandq_p", "2", "2"): ("4e2e87eaa4e87b169e03699f4c9e745a97a4b0aef4f18496dbf3bc23df9fa216",
        "3284de5661b96788897800ae1cac0e50f17795ace2f75f8f595aa1187ffe2363"),
    ("s42_diapandq_p", "w", "2"): ("3d843309f1f59853f7b27d2bebb5827ca7a3f89f3899e77f9aecb66c36d308b0",
        "2d3e137d51f53e4101ed91c6a9f0f06397e2d06805c9f13921a26134eec97b3d"),
    ("s42_diapandq_p", "2", "w"): ("d626631d7266bd452b1781e2202594077c91a4d49c8c67b03f47ae91d2be3ec1",
        "188ed020921a71a56c81c235789ba24941e2f741495b9876e91bf690e74a9ee4"),
    ("s42_boxpandboxq_p", "2", "2"): ("e13d7102cfea910c378e7052dc50abc5ac351df0f9a1f80ecbb4fb4a8823ef45",
        "0fe457676e1fc4f90338126f1b638d975d056457e59648da71cfc4be20c686ef"),
    ("s42_boxpandboxq_p", "w", "2"): ("cc4850e60140014a4f7a7b4eb59a65982704cbec87c42aaae9043252d00bb2b3",
        "e9f135f44c8188bebf50eff0a607161c3e76885c1f5203cad55852fb7691a716"),
    ("s42_boxpandboxq_p", "2", "w"): ("961fa4515c7f2758141bfe42ac8f9479dd66f557f548d630a8bce39128abcf60",
        "29b52dff8228ff818bb00b7ba8d6560e0c29c77665aff90c494ff097253e216e"),
    ("s42_diapanddiaq_p", "2", "2"): ("902d07e4ec383a475090a3f560ab607c8e192b01951ea7a39f54ff2e61dfd470",
        "138443dcaeb6e07029be22384b7578505a2488663b004008ee834aaead6f416a"),
    ("s42_diapanddiaq_p", "w", "2"): ("4d890909bc721dc6782775c8996a9f16ba97a8c85bda9aa7070e446084b442a8",
        "6dce5520cafce5ea23baa2d0d67b22f448915f28c3e1f687ece04f4be3a4e733"),
    ("s42_diapanddiaq_p", "2", "w"): ("d964c2744f083f1c48b4de7cf54c3a7c70f0603e7394c991b961e50a9b590800",
        "1f88de7577b2e4e4463be5982438f4c8b08d92c0cf0d1a89907bcf95b77d1a6f"),
    ("s42_boxpanddiaq_p", "2", "2"): ("d081db6d32a71eea96935c101b81b9805b01a071d1dfd5ab5987ceddfd868ca9",
        "24ba3d0d2485b7aabf802a52ac827186223190ba7e7ab51421a67343fe090a67"),
    ("s42_boxpanddiaq_p", "w", "2"): ("81c576f0cb9db6d01e62f4cd91df50210c8d089d8b49f4006d37a894c3fc7732",
        "ded12e17a3e77fab84b64b3613a9c4e2dc4d991aa23776a18c4d7af7535b544c"),
    ("s42_boxpanddiaq_p", "2", "w"): ("f2ea4fdbebce6c956dba12f0dd8f09ead384982f5025871a3ff599cb738ca923",
        "b7086272cc663d855251393001b9a7a0e80cf5f48b9ed89026b54a03bd365bab"),
}


def test_refine_output_is_pinned(capsys):
    inputs = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs"
    changed = []
    for (stem, m, n), expected in GOLDEN_REFINE_SHA256.items():
        digests = []
        for fmt in ("json", "text"):
            code, out, _ = run(capsys, "--format", fmt, "refine", str(inputs / f"{stem}.json"),
                               "--sigma", str(inputs / f"{stem}.sigma"), "--m", m, "--n", n)
            assert code == 0, (stem, m, n, fmt)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        if tuple(digests) != expected:
            changed.append((stem, m, n))
    assert len(GOLDEN_REFINE_SHA256) == 24 and not changed, changed


@pytest.mark.parametrize("argv", [
    ["check", "--logic", "S4", "<>[]p -> []<>p"],
    ["countermodel", "--logic", "S4", "[]<>p -> <>[]p"],
    ["interpolate", "--logic", "S4", "<>p", "p"],
    ["refine", "MODEL", "--sigma", "SIGMA", "--m", "1", "--n", "1"],
    ["smorynski", "--logic", "S4", "--sigma1", "SIGMA"],
], ids=["check", "countermodel", "interpolate", "refine", "smorynski"])
def test_json_output_still_writes_out(capsys, tmp_path, argv):
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps({
        "worlds": ["a", "b", "c"], "order": [[x, y] for x in "abc" for y in "abc"],
        "valuation": {"p": ["a", "b", "c"]},
    }))
    (tmp_path / "sigma.txt").write_text("[]p\n")
    argv = [{"MODEL": str(model_file), "SIGMA": str(tmp_path / "sigma.txt")}.get(a, a)
            for a in argv]
    written = {}
    for fmt in ("text", "json"):
        out_file = tmp_path / f"{fmt}.json"
        code, out, _ = run(capsys, "--format", fmt, argv[0], "--out", str(out_file), *argv[1:])
        assert code in (0, 1) and out_file.exists(), fmt
        written[fmt] = out_file.read_bytes()
    assert written["json"] == written["text"]
    payload = json.loads(out)
    assert json.loads(written["json"]) == payload["model"]


@pytest.mark.parametrize("argv", [
    ["check", "--logic", "S4", "<>[]p -> []<>p"],
    ["countermodel", "--logic", "S4", "[]<>p -> <>[]p"],
    ["interpolate", "--logic", "S4", "<>p", "p"],
    ["refine", "MODEL", "--sigma", "SIGMA", "--m", "1", "--n", "1"],
], ids=["check", "countermodel", "interpolate", "refine"])
def test_each_format_encodes_the_model_once(capsys, monkeypatch, tmp_path, argv):
    # text output prints the model as a line and JSON output in its payload;
    # check and countermodel reload the same encoding for their round-trip check
    from gammalog import kripke

    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps({
        "worlds": ["a", "b", "c"], "order": [[x, y] for x in "abc" for y in "abc"],
        "valuation": {"p": ["a", "b", "c"]},
    }))
    (tmp_path / "sigma.txt").write_text("[]p\n")
    argv = [{"MODEL": str(model_file), "SIGMA": str(tmp_path / "sigma.txt")}.get(a, a)
            for a in argv]
    encoded = kripke.model_to_dict
    calls = {}
    for fmt in ("text", "json"):
        count = []
        monkeypatch.setattr(kripke, "model_to_dict",
                            lambda model: count.append(model) or encoded(model))
        code, _, _ = run(capsys, "--format", fmt, *argv)
        assert code in (0, 1), fmt
        calls[fmt] = len(count)
    assert calls["text"] == calls["json"] == 1


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
    for args, expected in GOLDEN_CLUSTER_WITNESS_SHA256.items():
        code, formula, _ = run(capsys, "frame-formula", *args)
        assert code == 0
        code, out, _ = run(capsys, "--format", "json", "check", "--logic", "S4", formula.strip())
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == expected, args


# Inputs whose first countermodel in the frame-table order is pinned: hits
# at 1 to 5 worlds in S4, S4.2, Grz, G(KC,2,1), G(Int,w,2) and G(KC,2,2),
# and one full scan of G(Int,w,2) up to 5 worlds that finds nothing.
COUNTERMODEL_PIN_CASES = [
    ("S4", "p -> q"),
    ("S4", "[]<>p -> <>[]p"),
    ("S4", "[]([]p -> q) | []([]q -> p)"),
    ("S4.2", "<>p -> []p"),
    ("S4.2", "~(p & ~q & <>(~p & q & <>(p & q & <>(~p & ~q))))"),
    ("Grz", "~(p & <>(~p & <>(p & <>~p)))"),
    ("Grz", "~(p & <>(~p & <>(p & <>(~p & <>p))))"),
    ("G(KC,2,1)", "~(p0 & [](p0 | p1) & [](p0 -> ~p1) & [](p1 -> ~p0) & [](p0 -> <>p0)"
                  " & [](p0 -> <>p1) & [](p1 -> <>p0) & [](p1 -> <>p1))"),
    ("G(Int,w,2)", "<>p -> []<>p"),
    ("G(Int,w,2)", "~(p & ~q & <>(~p & q & <>(p & q)))"),
    ("G(Int,w,2)", "[]p -> [][]p"),
    ("G(KC,2,2)", "<>p -> []<>p"),
    ("G(KC,2,2)", "~(p & ~q & <>(~p & q & <>(p & q & <>(~p & ~q))))"),
    ("G(KC,2,2)", "~(p & ~q & ~r & <>(~p & q & ~r & <>(~p & ~q & r & <>(p & q & ~r"
                  " & <>(p & ~q & r)))))"),
]
# sha256 over the exit code and JSON stdout of each case in turn
GOLDEN_COUNTERMODEL_SHA256 = "3f4b04c6502505f955db74eaf058952ee2a2cc237508bdcecd3e688dd35fe970"


def test_countermodel_output_is_pinned(capsys):
    digest = hashlib.sha256()
    worlds = set()
    for logic, formula in COUNTERMODEL_PIN_CASES:
        code, out, _ = run(capsys, "--format", "json", "countermodel", "--logic", logic,
                           "--max-worlds", "5", formula)
        digest.update(f"{code}\n{out}".encode())
        payload = json.loads(out)
        worlds.add(len(payload["model"]["worlds"]) if payload["found"] else None)
    assert worlds == {1, 2, 3, 4, 5, None}
    assert digest.hexdigest() == GOLDEN_COUNTERMODEL_SHA256


# The interpolation pairs of the decide benchmark (perfbench/workloads.py):
# interpolants in the first six, countermodels in the next five, and the
# slow S4.2-family pair last.
INTERPOLATE_PIN_PAIRS = [
    ("p & q", "p | r"), ("[](p & q)", "[]p"), ("[]p & []q", "[](p & q)"),
    ("<>(p | q)", "<>p | <>q"), ("[](p -> q) & []p", "[]q"), ("p & []q", "<>p | r"),
    ("p", "q"), ("p", "[]p"), ("<>p", "p"), ("[](p | q)", "[]p | []q"),
    ("<>p & <>q", "<>(p & q)"),
]
INTERPOLATE_PIN_CASES = [
    (logic, premise, conclusion)
    for logic in ("G(Int,2,2)", "G(KC,2,1)", "G(Int,1,1)", "G(KC,w,w)")
    for premise, conclusion in INTERPOLATE_PIN_PAIRS
] + [("G(KC,2,2)", "<>[]p & <>[]q", "<>[](p & q)")]
GOLDEN_INTERPOLATE_SHA256 = "76aadc932b7a7e2b5f4e9813c6323c582dfe55d241232fbc783bb97f0d625797"


def test_interpolate_output_is_pinned(capsys):
    digest = hashlib.sha256()
    codes = set()
    for logic, premise, conclusion in INTERPOLATE_PIN_CASES:
        code, out, _ = run(capsys, "--format", "json", "interpolate", "--logic", logic,
                           premise, conclusion)
        digest.update(f"{code}\n{out}".encode())
        codes.add(code)
    assert codes == {0, 1}
    assert digest.hexdigest() == GOLDEN_INTERPOLATE_SHA256


def test_formula_file_errors_name_the_file(capsys, tmp_path):
    (tmp_path / "a.txt").write_text("p\n")
    (tmp_path / "b.txt").write_bytes("\u00e9 q\n".encode("latin-1"))
    for sigma2 in ("b.txt", "missing.txt"):
        path = str(tmp_path / sigma2)
        code, out, err = run(capsys, "smorynski", "--logic", "S4",
                             "--sigma1", str(tmp_path / "a.txt"), "--sigma2", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read formula file {path}: "), err
        assert "a.txt" not in err and err.count(path) == 1


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
