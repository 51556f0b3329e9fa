"""Command-line interface: reports, exit codes, file input, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import pseudosphere as ps
from pseudosphere import flatness
from pseudosphere.cli import (
    _LOWEST_ORDER_MODEL,
    _LOWEST_ORDER_SYSTEM,
    ALL_CHECKS,
    InputError,
    JobSpec,
    main,
    parse_input_file,
    report_passed,
    run,
)
from pseudosphere.errors import InsufficientOrderError
from pseudosphere.matrices import SeriesMatrix

from conftest import readme_block

HEIS = "-wb + z1*z1b + z2*z2b"
QUARTIC = "-wb + z1*z1b + z2*z2b + z1^2*z1b^2"
TARGET_GRAPH = "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2"


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# the run() pipeline


def test_run_heisenberg_full_report():
    job = JobSpec(n=2, order=8, kind="theta", theta_text=HEIS)
    report = run(job)
    assert report["reality"] == "pass"
    assert report["levi_nondegenerate"] is True
    assert report["signature"] == [2, 0]
    assert report["pseudospherical"] == "VanishesToOrder(4)"
    assert report["order_certified"] == 4
    assert report_passed(report)


def test_run_reality_failure():
    job = JobSpec(n=2, order=6, kind="theta", theta_text="-wb + z1*z2b")
    report = run(job)
    assert report["reality"] == "fail at z2*z1b"
    assert not report_passed(report)


def test_run_levi_degenerate():
    job = JobSpec(n=2, order=6, kind="theta", theta_text="-wb + z1*z1b")
    report = run(job)
    assert report["levi_nondegenerate"] is False
    assert not report_passed(report)


@pytest.mark.parametrize("checks", [
    "cross-check", "integrability,pseudosphericality", "integrability", "all",
])
def test_levi_degenerate_recorded_once(capsys, checks):
    code, out, _ = invoke(["check", "--n", "2", "--order", "6", "--theta=-wb + z1*z1b",
                           "--checks", checks, "--json"], capsys)
    report = json.loads(out)
    assert code == 1
    assert report["levi_nondegenerate"] is False
    assert [error["code"] for error in report["errors"]] == ["levi_degenerate"]
    for key in ("signature", "integrability", "pseudospherical", "cross_check",
                "order_certified", "witness"):
        assert report[key] is None, key


def test_run_cross_check_only_certifies_its_order():
    job = JobSpec(n=2, order=6, kind="theta", theta_text=QUARTIC, checks=("cross-check",))
    report = run(job)
    assert report["cross_check"] == "pass"
    assert report["pseudospherical"] is None
    assert report["order_certified"] == 2
    assert report_passed(report)


@pytest.mark.parametrize("argv, order_certified", [
    (["check", "--order", "5", "--f", "1,1=x2", "--checks", "integrability"], 4),
    (["integrability", "--order", "6", "--theta", QUARTIC], 3),
    (["check", "--order", "8", "--theta", HEIS, "--checks", "all"], 4),
], ids=["pde-integrability-only", "integrability-view", "all-checks"])
def test_order_certified_is_the_lowest_order_of_the_checks_that_ran(
    capsys, argv, order_certified
):
    # integrability certifies its checked order; with --checks all on the
    # order-8 sphere the orders are 5, 4 and 4, so the report takes the min
    _, out, _ = invoke(argv + ["--n", "2", "--json"], capsys)
    assert json.loads(out)["order_certified"] == order_certified


def test_run_mixed_signature():
    job = JobSpec(n=2, order=8, kind="theta", theta_text="-wb + z1*z1b - z2*z2b")
    report = run(job)
    assert report["signature"] == [1, 1]
    assert report["pseudospherical"] == "VanishesToOrder(4)"


def test_run_order_guard():
    job = JobSpec(n=2, order=4, kind="theta", theta_text=HEIS)
    with pytest.raises(InputError, match="needs --order >= 5"):
        run(job)
    # a kind that run does not know is no theta job
    job = JobSpec(n=2, order=6, kind="thta", theta_text=HEIS)
    with pytest.raises(InputError, match="unknown kind 'thta'"):
        run(job)


@pytest.mark.parametrize("fields", [
    {"kind": "pde", "f_texts": {(1, 1): "x2"},
     "checks": ("reality", "levi", "signature", "cross-check")},
    {"kind": "pde", "f_texts": {(1, 1): "x2"}, "checks": ()},
    {"kind": "theta", "theta_text": HEIS, "checks": ()},
], ids=["pde-model-checks", "pde-no-checks", "theta-no-checks"])
def test_run_rejects_a_job_that_leaves_nothing_to_run(fields):
    with pytest.raises(InputError, match="leaves nothing to run"):
        run(JobSpec(n=2, order=6, **fields))


def test_run_system_job_runs_its_checks_whatever_the_list():
    # a --f job keeps the checks that read a system, so "all" is those two
    fields = {"n": 2, "order": 5, "kind": "pde", "f_texts": {(1, 1): "yx1^2"},
              "witness": True}
    full = run(JobSpec(checks=ALL_CHECKS, **fields))
    pair = run(JobSpec(checks=("integrability", "pseudosphericality"), **fields))
    assert set(full.pop("timings_ms")) == {"integrability", "tensor"}
    assert set(pair.pop("timings_ms")) == {"integrability", "tensor"}
    assert full == pair


def test_run_is_deterministic_modulo_timings():
    job = JobSpec(n=2, order=6, kind="theta", theta_text=QUARTIC, checks=(
        "reality", "levi", "signature", "pseudosphericality", "cross-check"
    ), witness=True)
    a = run(job)
    b = run(job)
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b


@pytest.mark.parametrize("kind, text", [
    ("theta", QUARTIC),
    ("graph", "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2"),
])
def test_run_all_checks_builds_each_levi_object_once(monkeypatch, kind, text):
    import pseudosphere.hypersurface as hypersurface
    import pseudosphere.pde as pde

    calls = {"minors": 0, "implicit": 0, "cofactors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hypersurface, "jacobian_minor_family",
                        counted("minors", hypersurface.jacobian_minor_family))
    monkeypatch.setattr(pde, "_newton", counted("implicit", pde._newton))
    monkeypatch.setattr(SeriesMatrix, "cofactors", counted("cofactors", SeriesMatrix.cofactors))
    job = JobSpec(n=2, order=6, kind=kind, checks=ALL_CHECKS, **{f"{kind}_text": text})
    report = run(job)
    assert report["cross_check"] == "pass"
    assert report["integrability"] == "pass"
    # the Levi minors' one table; a graph's solve for w expands its own 1x1
    assert calls == {"minors": 1, "implicit": 1, "cofactors": 1 if kind == "theta" else 2}


# ----------------------------------------------------------------------
# exit codes


def test_exit_zero_on_pass(capsys):
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "8", "--theta", HEIS, "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pseudospherical"] == "VanishesToOrder(4)"
    assert payload["signature"] == [2, 0]


def test_exit_one_on_nonvanishing(capsys):
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "6", "--theta", QUARTIC, "--json",
         "--witness"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pseudospherical"].startswith("NonVanishing")
    assert payload["witness"]["component"] == [1, 1, 1, 1]
    assert payload["witness"]["coefficient"] == {"re": "-2/3", "im": "0"}


def test_exit_one_on_reality_failure(capsys):
    code, out, _ = invoke(
        ["reality", "--n", "2", "--order", "5", "--theta", "-wb + z1*z2b"], capsys
    )
    assert code == 1
    assert "fail at z2*z1b" in out


def test_exit_one_on_reality_failure_with_huge_coefficient(capsys):
    # the discrepancy has more digits than the interpreter will print
    theta = HEIS + " + 3^300000*z1^3"
    code, out, err = invoke(
        ["check", "--n", "2", "--order", "5", "--theta", theta, "--json"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["reality"].startswith("fail at ")
    assert "bit part" in payload["errors"][0]["message"]
    assert "Traceback" not in err


def test_exit_one_on_witness_with_huge_coefficient(capsys):
    # the witness coefficient has more digits than the interpreter will print
    theta = HEIS + " + 3^10000*z1^2*z1b^2"
    code, out, err = invoke(
        ["check", "--n", "2", "--order", "6", "--theta", theta, "--json", "--witness"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pseudospherical"].startswith("NonVanishing(")
    assert "bit part" in payload["pseudospherical"]
    assert "bit part" in payload["witness"]["coefficient"]["re"]
    assert payload["witness"]["coefficient"]["im"] == "0"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "--n", "2", "--order", "6", "--graph", "x1"],
    ["derive-pde", "--n", "2", "--order", "6", "--graph", "x1^2+y1^2+x2^2+y2^2+i*v"],
    ["check", "--n", "2", "--order", "5", "--f", "3,3=x1"],
    ["check", "--n", "2", "--order", "5", "--theta", HEIS + " + 3^10000*z1"],
    ["levi", "--n", "2", "--order", "1", "--theta=" + HEIS],
    ["derive-pde", "--n", "2", "--order", "1", "--theta=" + HEIS],
    ["check", "--n", "2", "--order", "2", "--theta=" + HEIS, "--checks", "integrability"],
    ["check", "--n", "2", "--order", "1", "--f", "1,1=x2"],
    ["curvature", "--n", "2", "--order", "1", "--f", "1,1=x2"],
    ["levi", "--n", "2", "--order", "6", "--f", "1,1=x1"],
    ["reality", "--n", "2", "--order", "6", "--f", "1,1=x1"],
    ["check", "--n", "2", "--order", "6", "--theta=" + HEIS + " + q1"],
    ["check", "--n", "2", "--order", "6", "--graph", "x1^2 + w"],
    ["check", "--n", "2", "--order", "6", "--f", "1,1=z1"],
    ["transform", "--n", "2", "--order", "6", "--theta=" + HEIS, "--map-z", "1=z1",
     "--map-z", "2=z2", "--map-w", "w + z1b"],
    ["check", "--n", "2", "--order", "6", "--theta", "1/wb"],
    ["transform", "--n", "2", "--order", "6", "--theta=" + HEIS, "--map-z", "1=z1",
     "--map-z", "2=z2", "--map-w", "w + 1"],
    ["transform", "--n", "2", "--order", "6", "--theta=" + HEIS, "--map-z", "1=z1",
     "--map-z", "2=z2", "--map-w", "0"],
    ["check", "--n", "2", "--order", "6", "--theta=" + HEIS, "--checks", ",,"],
    ["check", "--n", "2", "--order", "6", "--f", "1,1=x1", "--checks", "reality"],
    ["check", "--n", "2", "--order", "6", "--f", "1,1x1"],
    ["transform", "--n", "2", "--order", "6", "--theta=" + HEIS, "--map-z", "a=z1"],
    ["curvature", "--n", "2", "--order", "5", "--f", "1,2=x1", "--f", "2,1=x2"],
    ["transform", "--n", "2", "--order", "4", "--theta=" + HEIS, "--map-z", "1=w",
     "--map-z", "2=z2", "--map-w", "z1"],
    ["check", "--n", "2", "--order", "0", "--graph", "x1^2", "--checks", "reality"],
    ["check", "--n", "2", "--order", "0", "--theta=-wb", "--checks", "reality"],
    ["levi", "--n", "2", "--order", "6", "--graph", "x1^2+y1^2+x2^2+y2^2", "--theta=-wb"],
], ids=["graph-linear-part", "graph-not-real", "f-index-out-of-range",
        "theta-huge-linear-part", "levi-order-too-low", "derive-pde-order-too-low",
        "integrability-order-too-low", "pde-check-order-too-low",
        "curvature-order-too-low", "levi-needs-model", "reality-needs-model",
        "theta-unknown-variable", "graph-unknown-variable", "f-unknown-variable",
        "map-unknown-variable", "theta-non-unit-divisor", "map-moves-origin",
        "map-singular", "checks-empty", "checks-none-apply-to-system",
        "f-malformed", "map-z-malformed", "f-conflicting-pair", "map-image-not-graphable",
        "graph-order-zero", "theta-order-zero", "levi-graph-and-theta"])
def test_exit_two_on_malformed_input(capsys, argv):
    code, _, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["derive-pde"],
    ["transform", "--map-z", "1=z1", "--map-z", "2=z2", "--map-w", "w"],
], ids=["derive-pde", "transform"])
def test_printed_series_with_huge_coefficient(capsys, command):
    # the coefficient has more digits than the interpreter will print
    theta = HEIS + " + 3^10000*z1^2*z1b^2"
    code, out, err = invoke(
        command + ["--n", "2", "--order", "5", "--theta", theta, "--json"], capsys
    )
    assert code == 0
    assert "bit part" in json.dumps(json.loads(out))
    assert "Traceback" not in err


MAP = ["--map-z", "1=z1", "--map-z", "2=z2", "--map-w", "w"]


@pytest.mark.parametrize("command, lowest", [
    (["reality", "--theta", HEIS], 1),
    (["transform", "--theta", HEIS] + MAP, 1),
    (["derive-pde", "--theta", HEIS], 2),
    (["levi", "--theta", HEIS], 2),
    (["integrability", "--theta", HEIS], 3),
    (["curvature", "--theta", HEIS], 5),
    (["check", "--theta", HEIS, "--checks", "reality"], 1),
    (["check", "--theta", HEIS, "--checks", "levi"], 2),
    (["check", "--graph", "x1^2 + y1^2 + x2^2 + y2^2", "--checks", "integrability"], 3),
    (["check", "--theta", HEIS], 5),
    (["integrability", "--f", "1,1=x2"], 1),
    (["curvature", "--f", "1,1=x2"], 2),
    (["check", "--f", "1,1=x2"], 2),
], ids=["reality", "transform", "derive-pde", "levi", "integrability", "curvature",
        "check-reality", "check-levi", "check-integrability", "check", "pde-integrability",
        "pde-curvature", "pde-check"])
def test_order_below_a_commands_lowest_names_that_order(capsys, command, lowest):
    # the lowest --order of each command that the README lists: one below
    # it is an input error that names it, and at it the command runs
    code, _, err = invoke(command + ["--n", "2", "--order", str(lowest - 1)], capsys)
    assert code == 2
    assert f"needs --order >= {lowest}" in err
    code, _, err = invoke(command + ["--n", "2", "--order", str(lowest)], capsys)
    assert code in (0, 1) and not err


GRAPH = "x1^2 + y1^2 + x2^2 + y2^2"


@pytest.mark.parametrize("flags, fields, lowest", [
    (["--theta", HEIS, "--checks", "reality"],
     {"kind": "theta", "theta_text": HEIS, "checks": ("reality",)}, 1),
    (["--theta", HEIS, "--checks", "levi"],
     {"kind": "theta", "theta_text": HEIS, "checks": ("levi",)}, 2),
    (["--graph", GRAPH, "--checks", "integrability"],
     {"kind": "graph", "graph_text": GRAPH, "checks": ("integrability",)}, 3),
    (["--theta", HEIS], {"kind": "theta", "theta_text": HEIS}, 5),
    (["--f", "1,1=x2"],
     {"kind": "pde", "f_texts": {(1, 1): "x2"},
      "checks": ("integrability", "pseudosphericality")}, 2),
], ids=["check-reality", "check-levi", "check-integrability", "check", "pde-check"])
def test_run_below_a_checks_lowest_order_raises_the_command_line_message(
        capsys, flags, fields, lowest):
    # the library entry keeps the rule of `check`: one below the lowest
    # order is an InputError with the message the command prints, and at
    # it a report comes back
    _, _, err = invoke(["check", "--n", "2", "--order", str(lowest - 1)] + flags, capsys)
    with pytest.raises(InputError, match=f"needs --order >= {lowest}") as excinfo:
        run(JobSpec(n=2, order=lowest - 1, **fields))
    assert err == f"error: {excinfo.value}\n"
    # x2 is no integrable system: its one error entry is that check's
    report = run(JobSpec(n=2, order=lowest, **fields))
    expected = ["integrability"] if report["integrability"] == "fail" else []
    assert [error["code"] for error in report["errors"]] == expected


def _heis(order):
    return ps.make_model(2, ps.parse_series(HEIS, ps.canonical_context(2), order))


def _system(order):
    return ps.PdeSystem(2, order, {(1, 1): ps.parse_series("x2", ps.pde_context(2), order)})


def _identity_map(order):
    z1, z2, w = (ps.parse_series(v, ps.map_context(2), order) for v in ("z1", "z2", "w"))
    return [z1, z2], w


# each entry of the command line's lowest-order tables, as the library
# stage it runs from the input text on
TABLES = {
    "model": (_LOWEST_ORDER_MODEL, {
        "reality": lambda order: ps.check_reality(_heis(order)),
        "transform": lambda order: ps.apply_biholomorphism(_heis(order), *_identity_map(order)),
        "derive-pde": lambda order: ps.derive_associated_system(_heis(order)),
        "levi": lambda order: ps.levi(_heis(order)),
        "signature": lambda order: ps.levi(_heis(order)).signature,
        "integrability": lambda order: ps.check_complete_integrability(
            ps.derive_associated_system(_heis(order))),
        "pseudosphericality": lambda order: ps.is_pseudospherical(_heis(order)),
        "cross-check": lambda order: ps.cross_check(_heis(order)),
    }),
    "system": (_LOWEST_ORDER_SYSTEM, {
        "integrability": lambda order: ps.check_complete_integrability(_system(order)),
        "pseudosphericality": lambda order: ps.hachtroudi_tensor(_system(order)),
    }),
}


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind, (table, _) in TABLES.items() for name in table
])
def test_lowest_order_is_the_librarys(kind, name):
    # a guard against drift: each entry's library stage runs at the
    # table's order and raises one below it, so the command line neither
    # refuses an order the library answers nor lets through one it cannot
    table, stages = TABLES[kind]
    lowest = table[name]
    if kind == "model" and name in ("pseudosphericality", "cross-check"):
        # the library's fourth-order jets, plus one certified degree
        assert lowest == 5
        lowest = 4
    stages[name](lowest)
    with pytest.raises(InsufficientOrderError):
        stages[name](lowest - 1)


@pytest.mark.parametrize("argv, order", [
    (["check", "--theta", HEIS, "--checks", "all"], 6),
    (["check", "--theta", HEIS], 4),
    (["check", "--f", "1,1=x2"], 6),
    (["reality", "--theta", HEIS], 6),
    (["levi", "--graph", GRAPH], 6),
    (["derive-pde", "--theta", HEIS], 6),
    (["integrability", "--theta", HEIS], 6),
    (["integrability", "--f", "1,1=x2"], 6),
    (["curvature", "--f", "1,1=x2"], 6),
    (["curvature", "--theta", HEIS], 3),
    (["transform", "--theta", HEIS] + MAP, 6),
], ids=["check-all", "check-order-too-low", "pde-check", "reality", "levi", "derive-pde",
        "integrability", "pde-integrability", "pde-curvature", "curvature-order-too-low",
        "transform"])
def test_each_command_validates_its_job_once(monkeypatch, capsys, argv, order):
    calls = []
    validate = JobSpec.validate

    def counted(job, *args, **kwargs):
        calls.append(job)
        return validate(job, *args, **kwargs)

    monkeypatch.setattr(JobSpec, "validate", counted)
    invoke(argv + ["--n", "2", "--order", str(order)], capsys)
    assert len(calls) == 1


def test_exit_two_on_unsupported_dimension(capsys):
    code, _, err = invoke(
        ["check", "--n", "1", "--order", "8", "--theta", "-wb + z1*z1b"], capsys
    )
    assert code == 2
    assert "dimension" in err.lower()


def test_exit_two_on_syntax_error(capsys):
    code, _, err = invoke(
        ["check", "--n", "2", "--order", "8", "--theta", "-wb + "], capsys
    )
    assert code == 2


def test_exit_two_on_low_order(capsys):
    code, _, err = invoke(
        ["check", "--n", "2", "--order", "4", "--theta", HEIS], capsys
    )
    assert code == 2
    assert "order" in err


# ----------------------------------------------------------------------
# subcommands


def test_levi_command(capsys):
    code, out, _ = invoke(
        ["levi", "--n", "2", "--order", "5", "--theta", "-wb + z1*z1b - z2*z2b",
         "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["signature"] == [1, 1]


def test_levi_command_runs_its_own_checks(tmp_path, capsys):
    # the file's `checks` line selects the tensor, which levi never runs
    path = tmp_path / "job.psp"
    path.write_text(
        f"n = 2\norder = 6\ntheta = {QUARTIC}\nchecks = pseudosphericality\n",
        encoding="utf-8",
    )
    code, out, _ = invoke(["levi", "--input", str(path)], capsys)
    assert code == 0
    assert out == "reality: pass\nlevi_nondegenerate: True\nsignature: [2, 0]\n"


@pytest.mark.parametrize("command, order, theta, error", [
    ("reality", 6, "-wb + z1*z2b",
     "error[reality]: reality identity 1 fails at monomial z2*z1b (discrepancy 1)"),
    ("levi", 3, "-wb + z1*z1b",
     "error[levi_degenerate]: Levi determinant vanishes at the origin"),
], ids=["reality", "levi"])
def test_reality_and_levi_text_ends_with_the_error_line(
    capsys, command, order, theta, error
):
    flags = ["--n", "2", "--order", str(order), "--theta", theta]
    code, out, _ = invoke([command] + flags, capsys)
    assert code == 1
    assert out.splitlines()[-1] == error
    _, check_out, _ = invoke(["check", "--checks", "reality,levi"] + flags, capsys)
    assert check_out.splitlines()[-1] == error


def test_derive_pde_command(capsys):
    code, out, _ = invoke(
        ["derive-pde", "--n", "2", "--order", "6", "--theta",
         "-wb + z1*z1b + z2*z2b + z1^2 + z1b^2", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"]["1,1"] == "2"
    assert payload["components"]["2,2"] == "0"


def test_integrability_command_failure(capsys):
    # the view and check name the failed condition, its monomial and its
    # discrepancy in one error entry
    flags = ["--n", "2", "--order", "5", "--f", "1,1=x2", "--json"]
    for argv in (["integrability"], ["check", "--checks", "integrability"]):
        code, out, _ = invoke(argv + flags, capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["integrability"] == "fail"
        assert payload["errors"] == [
            {"code": "integrability", "message": "D_2(F[1,1]) - D_1(F[1,2]) at 1: 1"}
        ]


def test_integrability_command_derived_system(capsys):
    code, out, _ = invoke(
        ["integrability", "--n", "2", "--order", "6", "--theta", QUARTIC, "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["integrability"] == "pass"


def test_integrability_verdict_agrees_with_check(capsys):
    # both commands read the same model; theta with --f is an input error
    # in every command (test_conflicting_inputs_exit_two_and_name_both)
    flags = ["--n", "2", "--order", "5", "--theta", HEIS, "--json"]
    code, out, _ = invoke(["integrability"] + flags, capsys)
    integrability = json.loads(out)["integrability"]
    check_code, out, _ = invoke(["check", "--checks", "integrability"] + flags, capsys)
    assert json.loads(out)["integrability"] == integrability
    assert (code, check_code) == (0, 0)


# named by their last flag; on a model curvature reads the main theorem
# tensor that check reports, not the derived system's Hachtroudi tensor,
# whose witnesses are delta(0)^3 off: 2/3 on the quartic, -1/12 on the graph
@pytest.mark.parametrize("inputs, integrable, coefficient", [
    (["--order", "5", "--f", "1,1=yx1^2"], True, {"re": "1/3", "im": "0"}),
    (["--order", "5", "--f", "1,1=x2"], False, None),
    (["--order", "5", "--theta", QUARTIC], True, {"re": "-2/3", "im": "0"}),
    (["--order", "6", "--graph", TARGET_GRAPH], True, {"re": "16/3", "im": "0"}),
], ids=lambda value: value[-1] if isinstance(value, list) else None)
def test_system_verdicts_agree_between_check_and_the_commands(
    capsys, inputs, integrable, coefficient
):
    flags = ["--n", "2"] + inputs + ["--json"]
    _, out, _ = invoke(["integrability"] + flags, capsys)
    assert json.loads(out)["integrability"] == ("pass" if integrable else "fail")
    _, out, _ = invoke(["curvature"] + flags, capsys)
    curvature = json.loads(out)
    _, out, _ = invoke(["check", "--witness", "--checks", "all"] + flags, capsys)
    report = json.loads(out)
    assert report["integrability"] == ("pass" if integrable else "fail")
    assert report["pseudospherical"] == curvature["pseudospherical"]
    assert report["order_certified"] == curvature["order_certified"]
    assert report["witness"] == curvature["witness"]
    witness = curvature["witness"]
    assert (witness["coefficient"] if witness else None) == coefficient


def test_curvature_command(capsys):
    code, out, _ = invoke(
        ["curvature", "--n", "2", "--order", "5", "--f", "1,1=yx1^2", "--json"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pseudospherical"].startswith("NonVanishing")
    assert payload["witness"]["coefficient"] == {"re": "1/3", "im": "0"}


def test_curvature_command_zero(capsys):
    code, out, _ = invoke(
        ["curvature", "--n", "2", "--order", "5", "--f", "1,1=x1^2 + y", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pseudospherical"] == "VanishesToOrder(3)"


@pytest.mark.parametrize("argv, lines", [
    (["integrability", "--order", "5", "--f", "1,1=x2"],
     ["integrability: fail", "order_certified: 4",
      "error[integrability]: D_2(F[1,1]) - D_1(F[1,2]) at 1: 1"]),
    (["curvature", "--order", "5", "--theta", QUARTIC],
     ["pseudospherical: NonVanishing(component=(1, 1, 1, 1), monomial=1, "
      "coefficient=-2/3)", "order_certified: 1"]),
], ids=["integrability", "curvature"])
def test_integrability_and_curvature_print_their_fields(capsys, argv, lines):
    code, out, _ = invoke(argv + ["--n", "2"], capsys)
    assert code == 1
    assert out.splitlines() == lines


def test_transform_command(capsys):
    code, out, _ = invoke(
        ["transform", "--n", "2", "--order", "7", "--theta", HEIS,
         "--map-z", "1=z1", "--map-z", "2=z2", "--map-w", "w + z1^2", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert "z1^2" in payload["theta"]
    assert payload["reality"] == "pass"


def test_graph_input(capsys):
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "6", "--graph",
         "x1^2 + y1^2 + x2^2 + y2^2", "--json",
         "--checks", "reality,levi,signature"], capsys
    )
    assert code == 0
    assert json.loads(out)["signature"] == [2, 0]


def test_pde_system_input_kind(capsys):
    # --f alone routes the pipeline to the jet-side checks
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "5", "--f", "1,1=yx1^2", "--json",
         "--witness"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pseudospherical"].startswith("NonVanishing")
    assert payload["witness"]["coefficient"] == {"re": "1/3", "im": "0"}
    assert payload["reality"] is None

    # a constant system is completely integrable with zero tensor
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "5", "--f", "1,1=2", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pseudospherical"] == "VanishesToOrder(3)"
    assert payload["integrability"] == "pass"


def test_graph_input_full_pipeline(capsys):
    # the squared-modulus graph is the rescaled flat model
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "6", "--graph",
         "x1^2 + y1^2 + x2^2 + y2^2", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["pseudospherical"] == "VanishesToOrder(2)"


# ----------------------------------------------------------------------
# input files and serialization


def test_input_file_parsing(tmp_path):
    text = (
        "# heisenberg example\n"
        "n = 2\n"
        "order = 8\n"
        "theta = -wb + z1*z1b + z2*z2b\n"
        "checks = reality, levi, signature\n"
        "f[1,2] = yx1\n"
        "map_z[1] = z1\n"
        "map_w = w\n"
    )
    values = parse_input_file(text)
    assert values["n"] == 2
    assert values["order"] == 8
    assert values["theta"] == "-wb + z1*z1b + z2*z2b"
    assert values["checks"] == ("reality", "levi", "signature")
    assert values["f"][(1, 2)] == "yx1"
    assert values["map_z"][1] == "z1"
    assert values["map_w"] == "w"


def test_input_file_rejects_garbage():
    with pytest.raises(Exception):
        parse_input_file("just some words\n")
    with pytest.raises(Exception):
        parse_input_file("n = two\n")


def test_input_file_end_to_end(tmp_path, capsys):
    path = tmp_path / "job.psp"
    path.write_text("n = 2\norder = 8\ntheta = " + HEIS + "\n", encoding="utf-8")
    code, out, _ = invoke(["check", "--input", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["order_certified"] == 4


def test_flag_overrides_input_file(tmp_path, capsys):
    # a flag replaces the file's value of its key, theta included: the two
    # thetas do not conflict
    path = tmp_path / "job.psp"
    path.write_text("n = 2\norder = 8\ntheta = " + QUARTIC + "\n", encoding="utf-8")
    code, out, _ = invoke(
        ["check", "--input", str(path), "--order", "6", "--theta=" + HEIS, "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["order_requested"] == 6
    assert report["pseudospherical"] == "VanishesToOrder(2)"


INPUTS = {"theta": HEIS, "graph": "x1^2 + y1^2 + x2^2 + y2^2", "f[1,1]": "yx1"}


def _input_flag(key):
    return f"--f=1,1={INPUTS[key]}" if key == "f[1,1]" else f"--{key}={INPUTS[key]}"


@pytest.mark.parametrize("source", ["flags", "file", "file-and-flag"])
@pytest.mark.parametrize("first, second", [("theta", "graph"), ("theta", "f[1,1]"),
                                           ("graph", "f[1,1]")])
def test_conflicting_inputs_exit_two_and_name_both(tmp_path, capsys, first, second, source):
    # two of theta, graph and f[..], both as flags, both in the input file
    # or the first in the file and the second as a flag, are an input
    # error that names both: neither is dropped
    flags = {"flags": [first, second], "file": [], "file-and-flag": [second]}[source]
    lines = ["n = 2", "order = 5"] + [f"{key} = {INPUTS[key]}" for key in (first, second)
                                      if key not in flags]
    path = tmp_path / "job.psp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = invoke(["check", "--input", str(path)] + [_input_flag(k) for k in flags],
                            capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {first} and {second} are both given; "
                   "give one of theta, graph and f[k1,k2]\n")


def test_json_serialization_round_trip(capsys):
    code, out, _ = invoke(
        ["check", "--n", "2", "--order", "6", "--theta", QUARTIC, "--json",
         "--witness"], capsys
    )
    first = json.dumps(json.loads(out), sort_keys=True)
    second = json.dumps(json.loads(first), sort_keys=True)
    assert first == second


# ----------------------------------------------------------------------
# the README examples


def readme_command_lines():
    """The `pseudosphere ...` lines of README's "Command line" block."""
    import shlex

    block = readme_block("## Command line", "```sh")
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line and line[0] == "pseudosphere"]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_line_examples_run(argv, capsys):
    # exit 1 is a reported verdict (some examples show a failing check);
    # an example that cannot run at all would write an error to stderr
    code, out, err = invoke(argv[1:], capsys)
    assert code in (0, 1)
    assert out and not err


# ----------------------------------------------------------------------
# the JSON payload of each subcommand, and a fuzz of every subcommand

REPORT_KEYS = {
    "n", "order_requested", "order_certified", "reality", "levi_nondegenerate",
    "signature", "integrability", "pseudospherical", "cross_check", "witness",
    "timings_ms", "errors",
}
MAPS = ["--map-z", "1=z1", "--map-z", "2=z2", "--map-w", "w"]


@pytest.mark.parametrize("command, extra, keys", [
    ("check", [], REPORT_KEYS),
    ("reality", [], REPORT_KEYS),
    ("levi", [], REPORT_KEYS),
    ("derive-pde", [], {"n", "order_certified", "components"}),
    ("integrability", [], REPORT_KEYS),
    ("curvature", [], REPORT_KEYS),
    ("transform", MAPS, {"n", "order_certified", "theta", "reality"}),
])
def test_json_payload_keys(capsys, command, extra, keys):
    code, out, _ = invoke(
        [command, "--n", "2", "--order", "6", "--theta", QUARTIC, "--json"] + extra,
        capsys,
    )
    assert code in (0, 1)
    assert set(json.loads(out)) == keys


FUZZ_COMMANDS = ["check", "reality", "levi", "derive-pde", "integrability",
                 "curvature", "transform"]
FUZZ_NAMES = ["i", "z1", "z2", "z3", "z1b", "z2b", "z3b", "wb", "w", "x1", "x2",
              "y1", "y2", "v", "y", "yx1", "yx2", "q"]
# inputs that get past parsing, some of them through every check
FUZZ_THETAS = [HEIS, QUARTIC, "-wb + z1*z1b - z2*z2b", "-wb + z1*z1b",
               "-wb + z1*z1b + z2*z2b + z3*z3b", HEIS + " + z1^2*z2b + z2*z1b^2"]
FUZZ_GRAPHS = ["x1^2 + y1^2 + x2^2 + y2^2", "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2",
               "x1^2 + y1^2 - x2^2 - y2^2 + x1^4", "x1^2 + y1^2"]
FUZZ_SYSTEMS = ["2", "x2", "yx1^2", "x1^2 + y", "yx1*yx2"]


def _fuzz_text():
    atoms = st.one_of(st.integers(0, 3).map(str), st.sampled_from(FUZZ_NAMES))
    binary = st.sampled_from(["+", "-", "*", "/"])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, binary, inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"-{e}"),
        ),
        max_leaves=5,
    )


FUZZ_TEXT = _fuzz_text()


def _fuzz_expressions(pool):
    """A pool entry, a pool entry plus random terms, random text or garbage."""
    return st.one_of(
        st.sampled_from(pool),
        st.sampled_from(pool),
        st.tuples(st.sampled_from(pool), FUZZ_TEXT).map(" + ".join),
        st.one_of(FUZZ_TEXT, st.text("z1b+-*/^() 2", max_size=8)),
    )


INDEX = st.integers(0, 3).map(str)
CHECK_NAMES = st.sampled_from(list(ALL_CHECKS) + ["all", "bogus", ""])


@st.composite
def cli_invocations(draw):
    """(argv, input file text or None) for one random subcommand call."""
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = [command]
    # most draws are well formed, so that the checks themselves run often
    for flag, values in (("--n", ["2"] * 6 + ["3"] * 3 + ["1", None]),
                         ("--order", ["6"] * 6 + ["5"] * 3 + ["4", "2", "0", None])):
        value = draw(st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")
    for flag in draw(st.sampled_from([["--theta"], ["--theta"], ["--graph"], ["--f"],
                                      ["--f", "--f"], ["--theta", "--f"],
                                      ["--graph", "--theta"], []])):
        if flag == "--theta":
            argv.append(f"--theta={draw(_fuzz_expressions(FUZZ_THETAS))}")
        elif flag == "--graph":
            argv.append(f"--graph={draw(_fuzz_expressions(FUZZ_GRAPHS))}")
        else:
            k1, k2 = draw(st.sampled_from(["1", "1", "2", "0", "3"])), draw(INDEX)
            argv.append(f"--f={k1},{k2}={draw(_fuzz_expressions(FUZZ_SYSTEMS))}")
    if command == "check" and draw(st.booleans()):
        argv.append("--checks=" + ",".join(draw(st.lists(CHECK_NAMES, max_size=3))))
    if command == "transform":
        # near-identity maps, so that some of them are admissible
        perturbation = st.one_of(st.just(""), FUZZ_TEXT.map(" + ".__add__))
        for k in draw(st.sampled_from([["1", "2"], ["1", "2"], ["1", "2", "3"], ["1"],
                                       ["0", "x"]])):
            argv.append(f"--map-z={k}=z{k}{draw(perturbation)}")
        if draw(st.integers(0, 3)):
            argv.append(f"--map-w=w{draw(perturbation)}")
    argv += [flag for flag in ("--json", "--witness") if draw(st.booleans())]
    lines = st.one_of(
        st.tuples(
            st.sampled_from(["n", "order", "checks", "checks", "theta", "graph", "f[1,1]",
                             "f[1,x]", "map_z[1]", "map_w", "bogus"]),
            st.one_of(st.integers(2, 6).map(str), CHECK_NAMES, FUZZ_TEXT),
        ).map(" = ".join),
        st.text("n=1 #\n", max_size=6),
    )
    text = draw(st.one_of(st.none(), st.none(), st.none(),
                          st.lists(lines, max_size=4).map("\n".join)))
    return argv, text


@settings(max_examples=150, deadline=None)
@given(cli_invocations())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, invocation):
    argv, text = invocation
    if text is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz.psp"
        path.write_text(text, encoding="utf-8")
        argv = argv + ["--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    # a report on stdout, or else one error line (a failed computation
    # can also end in exit 1 that way)
    assert out or err.startswith("error: ")
    if code == 2:
        assert not out
    if out and "--json" in argv:
        json.loads(out)


# ----------------------------------------------------------------------
# input budgets


@pytest.mark.parametrize("argv, limit", [
    # the exponent budget, before 7^3000000 is evaluated
    (["check", "--n", "2", "--order", "5", "--theta", HEIS + " + 7^3000000*z1^3"],
     "exponent 3000000 exceeds the limit of 1048576"),
    # the coefficient budget, at the first square past it
    (["check", "--n", "2", "--order", "5", "--theta", HEIS + " + 7^1000000*z1^3"],
     "exceeds the limit of 1048576 bits"),
    (["check", "--n", "2", "--order", "5", "--theta", HEIS + " + (1/3 + z1)^1000000"],
     "exceeds the limit of 1048576 bits"),
    # sums and products are within budget only while their results are
    (["check", "--n", "2", "--order", "5",
      "--theta", HEIS + " + " + "*".join(["3^300000"] * 3) + "*z1^3"],
     "exceeds the limit of 1048576 bits"),
    # a literal that long does not fit the interpreter's str-to-int limit
    (["check", "--n", "2", "--order", "5", "--theta", HEIS + " + " + "9" * 5000 + "*z1^3"],
     "exceeds the limit of 4096 bits"),
    (["check", "--n", "2", "--order", "5", "--theta", HEIS + " + " + "9" * 1234 + "*z1^3"],
     "integer literal of 4100 bits exceeds the limit of 4096 bits"),
    (["check", "--n", "2", "--order", "17", "--theta", HEIS], "--order 17 exceeds the limit of 16"),
    (["derive-pde", "--n", "2", "--order", "17", "--theta", HEIS],
     "--order 17 exceeds the limit of 16"),
    (["check", "--n", "9", "--order", "5", "--theta", HEIS], "--n 9 exceeds the limit of 8"),
], ids=["exponent", "power", "series-power", "product", "literal-digits", "literal-bits",
        "order", "derive-pde-order", "dimension"])
def test_input_budgets_exit_two_with_a_message_that_names_the_limit(capsys, argv, limit):
    code, _, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and limit in err
    assert "Traceback" not in err


def test_input_budgets_hold_at_their_limits(capsys):
    # the largest --order and a literal of 4096 bits are inputs like others
    code, _, err = invoke(["check", "--n", "2", "--order", "16", "--theta", HEIS,
                           "--checks", "reality"], capsys)
    assert code == 0 and not err
    code, _, err = invoke(["check", "--n", "2", "--order", "5", "--theta",
                           HEIS + f" + {2 ** 4096 - 1}*z1^2*z1b^2", "--checks", "reality"],
                          capsys)
    assert code == 0 and not err
    with pytest.raises(InputError, match="--order 17 exceeds the limit of 16"):
        run(JobSpec(n=2, order=17, kind="theta", theta_text=HEIS))


def test_check_names_each_raw_entry_where_the_routes_differ(monkeypatch, capsys):
    # a derived system perturbed by yx1^2*yx2^2 in F[1,1], planted in the
    # transported route: check exits 1, and each raw entry where the routes
    # differ is an error line with its monomial and both coefficients
    derive = flatness.derive_associated_system

    def perturbed(model):
        system = derive(model)
        components = {key: system.component(*key) for key in system.component_keys()}
        components[(1, 1)] += ps.parse_series("yx1^2*yx2^2", ps.pde_context(2), system.order)
        return ps.PdeSystem(2, system.order, components)

    monkeypatch.setattr(flatness, "derive_associated_system", perturbed)
    flags = ["--n", "2", "--order", "7", "--theta", QUARTIC, "--checks", "cross-check"]
    code, out, _ = invoke(["check"] + flags, capsys)
    assert code == 1
    lines = out.splitlines()
    assert "cross_check: fail" in lines
    assert "error[cross_check]: raw (1, 1, 1, 1) at z2b^2: direct 0, transported -2" in lines
    _, out, _ = invoke(["check", "--json"] + flags, capsys)
    errors = json.loads(out)["errors"]
    assert errors and {error["code"] for error in errors} == {"cross_check"}
