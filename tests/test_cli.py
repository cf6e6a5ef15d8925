"""Command line surface: spec grammar, subcommands, exit codes."""

from __future__ import annotations

import json
import re
from pathlib import Path

import networkx as nx
import pytest

import ugconn
from ugconn import flows
from ugconn.cli import SpecError, main, parse_spec
from ugconn.genset import CYCLE, OTHER, PATH, STAR, UNICYCLIC_TF
from ugconn.lemmas import CHECK_IDS, TOOL_VERSION


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- spec grammar ----------------------------------------------------------


def test_parse_spec_presets():
    assert parse_spec(["mb:4"]).cls == CYCLE
    assert parse_spec(["mb:3"]).cls == OTHER  # triangle, special-cased preset
    assert parse_spec(["bubble:4"]).cls == PATH
    assert parse_spec(["star:5"]).cls == STAR
    g = parse_spec(["ug:5:c=4"])
    assert g.cls == UNICYCLIC_TF
    assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4), (4, 5))
    assert parse_spec(["ug:5:c=5"]).cls == CYCLE  # full-length cycle


def test_parse_spec_edge_lists():
    g = parse_spec(["edges:1-2,2-3", "n=3"])
    assert g.n == 3 and g.edges == ((1, 2), (2, 3))


def _readme_specs() -> list[list[str]]:
    """The spec tokens of each line of the README's spec list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Every subcommand takes `--spec`", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.strip()]
    return [re.split(r"\s{2,}", ln)[0].split() for ln in lines]


def test_readme_specs_parse():
    specs = _readme_specs()
    assert len(specs) == 5
    for tokens in specs:
        parse_spec(tokens)


@pytest.mark.parametrize(
    "tokens",
    [
        ["mb:4", "n=4"],  # n= is edges-only
        ["edges:1-2,2-3"],  # missing n=
        ["ug:5"],
        ["ug:5:c=2"],
        ["ug:5:c=6"],
        ["mb:2"],
        ["pizza:4"],
        ["edges:1-2,2-x", "n=3"],
        ["edges:1-2,2-3,1-3", "n=3"],  # explicit triangle stays rejected
        ["edges:1-2", "n=3", "n=2"],  # a second n= never overrides the first
    ],
)
def test_parse_spec_rejections(tokens):
    with pytest.raises((SpecError, Exception)):
        g = parse_spec(tokens)
        if g.cls == OTHER:  # explicit lists must not get the mb:3 exemption
            raise AssertionError("triangle accepted")


# --- gen -------------------------------------------------------------------


def test_gen_dot_default(capsys):
    code, out, _ = run(capsys, "gen", "--spec", "mb:4")
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 48


def test_gen_graph6_parses(capsys):
    code, out, _ = run(capsys, "gen", "--spec", "mb:4", "--format", "graph6")
    assert code == 0
    H = nx.from_graph6_bytes(out.strip().encode())
    assert H.number_of_nodes() == 24 and H.number_of_edges() == 48


def test_gen_graph6_pads_a_single_bit(capsys):
    # order 2 has one adjacency bit, padded to a full six-bit group
    code, out, _ = run(capsys, "gen", "--spec", "bubble:2", "--format", "graph6")
    assert code == 0
    assert out.encode() == nx.to_graph6_bytes(nx.path_graph(2), header=False) == b"A_\n"


def test_gen_graph6_capacity(capsys):
    code, _, err = run(capsys, "gen", "--spec", "ug:5:c=4", "--format", "graph6")
    assert code == 3
    assert err.startswith("capacity:")


def test_gen_edgelist_to_file(capsys, tmp_path):
    target = tmp_path / "mb4.edges"
    code, out, _ = run(
        capsys, "gen", "--spec", "mb:4", "--format", "edgelist", "--out", str(target)
    )
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "n=4 order=24 degree=4"
    assert len(lines) == 49


def test_gen_rejects_an_unknown_format(capsys):
    code, out, err = run(capsys, "gen", "--spec", "mb:4", "--format", "svg")
    assert code == 2 and out == ""
    assert "invalid choice: 'svg'" in err


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
@pytest.mark.parametrize(
    "command",
    [["gen"], ["info"], ["verify", "--checks", "four-cycle-labels", "--workers", "1"]],
    ids=lambda c: c[0],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command, where):
    out = tmp_path / "absent" / "x.txt" if where == "missing-dir" else tmp_path
    code, stdout, err = run(capsys, *command, "--spec", "mb:4", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write output file:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gen_rejects_triangle_spec(capsys):
    code, _, err = run(capsys, "gen", "--spec", "edges:1-2,2-3,1-3", "n=3")
    assert code == 2
    assert "error:" in err


# --- info and connectivity ---------------------------------------------------


def test_info_lists_the_essentials(capsys):
    code, out, _ = run(capsys, "info", "--spec", "ug:5:c=4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("class=UnicyclicTriangleFree n=5")
    assert "order=120" in lines and "degree=5" in lines
    assert any(ln.startswith("peel=5") for ln in lines)
    assert "girth=4" in lines


def test_connectivity_values_and_witness(capsys):
    code, out, _ = run(capsys, "connectivity", "--spec", "mb:4")
    assert code == 0
    assert out == "kappa=4 cut=1243,1324,2134,4231\n"
    code, out, _ = run(capsys, "connectivity", "--spec", "mb:3")
    assert code == 0 and out.startswith("kappa=3")
    code, out, _ = run(capsys, "connectivity", "--spec", "star:4")
    assert code == 0 and out.startswith("kappa=3")


def test_connectivity_complete_graph_convention(capsys):
    code, out, _ = run(capsys, "connectivity", "--spec", "edges:1-2", "n=2")
    assert code == 0
    assert out == "kappa=1 complete-graph-convention\n"


def test_connectivity_at_n7(capsys):
    code, out, _ = run(capsys, "connectivity", "--spec", "mb:7")
    assert code == 0
    kappa, cut = out.split()
    assert kappa == "kappa=7"
    assert len(cut.removeprefix("cut=").split(",")) == 7


def test_connectivity_at_n8(capsys):
    code, out, _ = run(capsys, "connectivity", "--spec", "mb:8")
    assert code == 0
    kappa, cut = out.split()
    assert kappa == "kappa=8"
    assert len(cut.removeprefix("cut=").split(",")) == 8


def test_info_prints_girth_at_n8(capsys):
    code, out, _ = run(capsys, "info", "--spec", "mb:8")
    assert code == 0
    assert "order=40320" in out.splitlines() and "girth=4" in out.splitlines()


def test_materialization_cap_is_exit_three(capsys):
    code, _, err = run(capsys, "connectivity", "--spec", "mb:9")
    assert code == 3
    assert err.startswith("capacity:")


# --- cut-search ---------------------------------------------------------------


def test_cut_search_none_below_threshold(capsys):
    code, out, _ = run(
        capsys, "cut-search", "--spec", "mb:4", "--kind", "cyclic", "--max-size", "7"
    )
    assert code == 0
    assert out == "none\n"


def test_cut_search_witness_at_eight(capsys):
    code, out, _ = run(
        capsys, "cut-search", "--spec", "mb:4", "--kind", "cyclic", "--max-size", "8"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind=cyclic-cut"
    assert lines[1] == "size=8"
    assert lines[3:] == [
        "1234", "1342", "2143", "2431", "3214", "3421", "4123", "4312",
    ]


def test_cut_search_good_neighbor_zero_is_plain_cut(capsys):
    code, out, _ = run(
        capsys,
        "cut-search", "--spec", "mb:4", "--kind", "good-neighbor:0", "--max-size", "4",
    )
    assert code == 0
    assert out.splitlines()[0] == "kind=vertex-cut"
    assert out.splitlines()[1] == "size=4"


def test_cut_search_random_mode_is_seeded(capsys):
    argv = (
        "cut-search", "--spec", "mb:4", "--mode", "random",
        "--max-size", "8", "--seed", "5",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "kind=cyclic-cut"


def test_cut_search_usage_errors(capsys):
    code, _, err = run(
        capsys,
        "cut-search", "--spec", "mb:4", "--kind", "weird", "--max-size", "5",
    )
    assert code == 2 and "cut kind" in err
    code, _, err = run(
        capsys,
        "cut-search", "--spec", "mb:4", "--kind", "good-neighbor:2",
        "--max-size", "6", "--mode", "random",
    )
    assert code == 2 and "cyclic" in err
    for mode in ("random", "exhaustive"):
        for size in ("25", "-2"):
            code, _, err = run(
                capsys,
                "cut-search", "--spec", "mb:4", "--mode", mode, "--max-size", size,
            )
            assert code == 2 and "0..24" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("info", "--spec", "mb:4", "x=3"), "unrecognized spec token 'x=3'"),
        (("info", "--spec", "edges:", "n=3"), "bad edge token '' (want k-l)"),
        (("info", "--spec", "foo"), "unrecognized spec 'foo'"),
        (
            ("cut-search", "--spec", "mb:4", "--kind", "good-neighbor:-1", "--max-size", "5"),
            "good-neighbor order must be >= 0",
        ),
        # the triangle of mb:3 has no block decomposition to corrupt
        (("verify", "--spec", "mb:3", "--corrupt"), "corruption needs a block decomposition"),
    ],
    ids=["spec-token", "empty-edge", "spec-head", "negative-good", "corrupt-mb3"],
)
def test_spec_and_argument_guards_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_negative_seed_is_usage_error(capsys):
    # Random(-s) draws as Random(s), so seed -1 would replay seed 1
    for argv in (
        ("cut-search", "--spec", "mb:4", "--mode", "random", "--max-size", "8"),
        ("verify", "--spec", "mb:4", "--checks", "cross-edge-count"),
    ):
        code, _, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and "seed" in err


def test_workers_below_one_is_usage_error(capsys):
    for argv in (
        ("verify", "--spec", "mb:4", "--checks", "cross-edge-count"),
        ("cut-search", "--spec", "mb:4", "--max-size", "3"),
    ):
        for workers in ("0", "-1"):
            code, _, err = run(capsys, *argv, "--workers", workers)
            assert code == 2 and "--workers" in err


# --- verify and report ---------------------------------------------------------


def test_verify_json_roundtrip(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, err = run(
        capsys,
        "verify", "--spec", "mb:4", "--checks", "cross-edge-count",
        "four-cycle-labels", "--out", str(path),
    )
    assert code == 0
    assert err.startswith("verify: PASS in")
    data = json.loads(path.read_text())
    assert data["schema"] == 1 and data["passed"] is True
    assert [c["id"] for c in data["checks"]] == [
        "cross-edge-count",
        "four-cycle-labels",
    ]
    assert all("millis" not in c for c in data["checks"])

    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("graph: class=Cycle n=4")
    assert out.splitlines()[-1] == "PASS: 2 checks run, 0 skipped"


def test_verify_text_format(capsys):
    code, out, err = run(
        capsys,
        "verify", "--spec", "mb:4", "--checks", "cross-edge-count",
        "--format", "text",
    )
    assert code == 0
    assert out.splitlines()[-1] == "PASS: 1 checks run, 0 skipped"


def test_report_prints_the_table_of_verify_text(capsys, tmp_path):
    verify = (
        "verify", "--spec", "ug:5:c=4", "--checks", "common-neighbor-triple",
        "cyclic-cut-upper",
    )
    path = tmp_path / "rep.json"
    assert run(capsys, *verify, "--out", str(path))[0] == 0
    _, text, _ = run(capsys, *verify, "--format", "text")
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0 and out == text
    # the exploratory FAIL keeps its tag, so it does not read as gating
    assert "common-neighbor-triple  FAIL              [exploratory]  " in out


def test_verify_corrupt_control_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    code, _, err = run(
        capsys,
        "verify", "--spec", "mb:4", "--checks", "cross-edge-count",
        "--corrupt", "--out", str(path),
    )
    assert code == 1
    assert "failing: cross-edge-count" in err
    data = json.loads(path.read_text())
    assert data["passed"] is False

    code, out, _ = run(capsys, "report", str(path))
    assert code == 1
    assert out.splitlines()[-1] == "FAIL: 1 checks run, 0 skipped"


def test_verify_proves_kappa_and_the_upper_bound_at_n8(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--spec", "mb:8", "--checks", "connectivity-value",
        "cyclic-cut-upper",
    )
    assert code == 0
    value, upper = json.loads(out)["checks"]
    assert value["verdict"] == upper["verdict"] == "PROVED-EXHAUSTIVE"
    assert value["detail"]["kappa"] == 8 and len(value["detail"]["minimum_cut"]) == 8
    assert upper["detail"]["size"] == 24 and upper["detail"]["is_cyclic_cut"]


def _no_flows(*args):
    raise AssertionError("a flow ran")


def test_verify_corrupt_n8_skips_the_flows_on_capacity(capsys, monkeypatch):
    # the corrupted copy has no vertex-0 symmetry, so kappa and kappa_1 would
    # need the Even-family flows at order 40,320
    monkeypatch.setattr(flows, "_unit_flow", _no_flows)
    code, out, _ = run(
        capsys,
        "verify", "--spec", "mb:8", "--corrupt", "--checks", "connectivity-value",
        "residue-bound-p2",
    )
    assert code == 0
    value, p2 = json.loads(out)["checks"]
    assert value["verdict"] == p2["verdict"] == "SKIPPED"
    assert value["scope"] == p2["scope"] == (
        "separation flows without vertex-transitivity capped at order 5040"
    )


def test_verify_prices_p2_at_n8_from_measured_costs(capsys, monkeypatch):
    # p2 is priced 25 s at n=8 (14-16 s measured on ug:8:c=4): a 10 s budget
    # skips it before a flow
    monkeypatch.setattr(flows, "_unit_flow", _no_flows)
    code, out, _ = run(
        capsys,
        "verify", "--spec", "ug:8:c=4", "--checks", "residue-bound-p2",
        "--budget", "10",
    )
    assert code == 0
    (p2,) = json.loads(out)["checks"]
    assert p2["verdict"] == "SKIPPED"
    assert p2["scope"] == "estimated ~25s exceeds the remaining budget"


@pytest.mark.xfail(
    strict=True,
    reason="verify_all prices a check before the check's scope guard runs, so "
    "p2, stated for the unicyclic family only, reads as over budget on star:8",
)
def test_verify_reports_an_out_of_scope_check_as_out_of_scope(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--spec", "star:8", "--checks", "residue-bound-p2",
        "--budget", "20",
    )
    assert code == 0
    (p2,) = json.loads(out)["checks"]
    assert p2["verdict"] == "SKIPPED"
    assert p2["scope"] == "stated for the unicyclic family only"


@pytest.mark.parametrize("spec", ["mb:4", "ug:4:c=4"])
def test_verify_corrupt_runs_every_check_and_fails(capsys, spec):
    # the corrupted copy lacks an edge of the constructed 4-cycle: a FAIL,
    # not a usage error
    code, out, err = run(capsys, "verify", "--spec", spec, "--corrupt")
    assert code == 1
    assert "cyclic-cut-upper" in err.split("failing: ")[1]
    (upper,) = [c for c in json.loads(out)["checks"] if c["id"] == "cyclic-cut-upper"]
    assert upper["verdict"] == "FAIL"
    assert upper["detail"]["cycle"] == ["1234", "1243", "2143", "2134"]
    assert upper["detail"]["missing_edges"] == [["1234", "1243"]]


@pytest.mark.parametrize("spec", [["bubble:2"], ["edges:1-2", "n=2"]])
def test_verify_corrupt_order_two_is_usage_error(capsys, spec):
    # vertex 0's block holds vertex 0 alone, so no cross edge can be redirected
    code, out, err = run(capsys, "verify", "--spec", *spec, "--corrupt")
    assert code == 2 and out == ""
    assert err.startswith("error: corruption needs two vertices")


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--spec", "mb:4", "--checks", "nope")
    assert code == 2
    assert "unknown checks" in err
    # `verify --help` does not list the ids: the error names every one
    assert [cid for cid in CHECK_IDS if cid not in err] == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--checks", ","), "no checks selected"),
        (("--budget", "-1"), "budget"),
        (("--budget", "nan"), "budget"),
        # JSON holds no Infinity, so the report could not be written
        (("--budget", "inf"), "budget"),
        (("--budget", "1e400"), "budget"),
    ],
    ids=["empty-checks", "negative-budget", "nan-budget", "inf-budget", "1e400-budget"],
)
def test_verify_rejects_an_empty_selection_and_a_bad_budget(capsys, flags, message):
    code, out, err = run(capsys, "verify", "--spec", "mb:4", *flags)
    assert code == 2
    assert message in err
    assert out == ""


def test_a_value_error_inside_a_check_is_not_a_usage_error(monkeypatch):
    import ugconn.lemmas as lemmas

    def broken(ctx):
        raise ValueError("broken check")

    monkeypatch.setattr(
        lemmas,
        "CHECKS",
        tuple(
            (cid, broken if cid == "cross-edge-count" else fn)
            for cid, fn in lemmas.CHECKS
        ),
    )
    with pytest.raises(ValueError, match="broken check"):
        main(["verify", "--spec", "mb:4", "--checks", "cross-edge-count"])


def test_verify_budget_30_runs_p1_at_n6(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "ug:6:c=4", "--budget", "30")
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["residue-bound-p1"]["verdict"] == "SUPPORTED-SAMPLED"
    assert checks["residue-bound-p2"]["verdict"] == "PROVED-EXHAUSTIVE"


@pytest.mark.parametrize(
    "spec, budget", [("mb:4", "10"), ("ug:6:c=4", "10"), ("ug:6:c=4", "7")]
)
def test_a_budget_above_the_summed_prices_skips_nothing(capsys, spec, budget):
    # the prices of every check in scope sum to 6.5 s on mb:4 and 4.8 s on
    # ug:6:c=4, so these budgets run the exhaustive cut checks too; only the
    # n=5 falsifier, priced before its scope is read, may find too little left
    code, out, _ = run(capsys, "verify", "--spec", spec, "--budget", budget)
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    over = {cid for cid, c in checks.items() if "remaining budget" in c["scope"]}
    assert over <= {"cyclic-cut-falsify"}
    assert checks["cyclic-cut-upper"]["verdict"] == "PROVED-EXHAUSTIVE"
    assert checks["four-cycle-labels"]["verdict"] == "PROVED-EXHAUSTIVE"
    if spec == "mb:4":
        assert checks["cyclic-cut-exact"]["verdict"] == "PROVED-EXHAUSTIVE"


def test_verify_budget_30_runs_the_headline_check_at_n7(capsys):
    # above n=4 only cyclic-cut-upper checks kappa_c = 4n-8; a 30 s budget
    # must reach it after the cheap checks
    code, out, _ = run(capsys, "verify", "--spec", "mb:7", "--budget", "30")
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["cyclic-cut-upper"]["verdict"] == "PROVED-EXHAUSTIVE"
    assert checks["four-cycle-labels"]["verdict"] == "PROVED-EXHAUSTIVE"
    assert [c for c in checks.values() if "remaining budget" in c["scope"]] == []
    assert checks["cyclic-cut-exact"]["scope"] == "exhaustive cut search feasible at n=4 only"
    assert checks["cyclic-cut-falsify"]["scope"] == "falsification run targets n=5"


def test_verify_stdout_json_when_no_out(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "mb:4", "--checks", "four-cycle-labels")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_report_missing_or_malformed_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "report", str(garbled))
    assert code == 2 and "not valid JSON" in err
    hollow = tmp_path / "hollow.json"
    hollow.write_text("{}")
    code, _, err = run(capsys, "report", str(hollow))
    assert code == 2


@pytest.mark.parametrize(
    "report, message",
    [
        ({"graph": {}, "checks": []}, "descriptor"),
        ({"graph": {"descriptor": "x"}, "checks": [{"verdict": "FAIL", "scope": ""}]}, "id"),
        ({"graph": {"descriptor": "x"}, "checks": "abc"}, "list"),
        (
            {
                "graph": {"descriptor": "x"},
                "checks": [{"id": "a", "verdict": "FAIL", "scope": "", "gating": 0}],
            },
            "bool gating",
        ),
        (
            {
                "graph": {"descriptor": "x"},
                "checks": [{"id": "a", "verdict": "FIAL", "scope": "", "gating": True}],
            },
            "'FIAL' is none of PROVED-EXHAUSTIVE, SUPPORTED-SAMPLED, FAIL, SKIPPED",
        ),
    ],
    ids=[
        "no-descriptor",
        "check-without-id",
        "checks-a-string",
        "gating-not-a-bool",
        "unknown-verdict",
    ],
)
def test_report_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, report, message):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: report") and message in err


@pytest.mark.parametrize(
    "saved", [{"passed": "false"}, {"passed": True}, {}], ids=["string", "true", "absent"]
)
@pytest.mark.parametrize(
    "gating, verdict, code",
    [(True, "FAIL", 1), (False, "PASS", 0)],
    ids=["gating", "exploratory"],
)
def test_report_judges_the_checks_not_the_saved_passed_field(
    capsys, tmp_path, saved, gating, verdict, code
):
    check = {"id": "a", "verdict": "FAIL", "scope": "s", "gating": gating, "detail": {}}
    report = {"graph": {"descriptor": "x"}, "checks": [check], **saved}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    got, out, _ = run(capsys, "report", str(path))
    assert got == code
    assert out.splitlines()[-1] == f"{verdict}: 1 checks run, 0 skipped"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == TOOL_VERSION


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    assert ugconn.__version__ == TOOL_VERSION
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "ugconn.__version__"
    }
