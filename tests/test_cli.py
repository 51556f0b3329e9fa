"""Command-line interface: reports, exit codes, file input, determinism."""

import json

import pytest

from pseudosphere.cli import (
    ALL_CHECKS,
    JobSpec,
    main,
    parse_input_file,
    report_passed,
    run,
)

HEIS = "-wb + z1*z1b + z2*z2b"
QUARTIC = "-wb + z1*z1b + z2*z2b + z1^2*z1b^2"


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


def test_run_mixed_signature():
    job = JobSpec(n=2, order=8, kind="theta", theta_text="-wb + z1*z1b - z2*z2b")
    report = run(job)
    assert report["signature"] == [1, 1]
    assert report["pseudospherical"] == "VanishesToOrder(4)"


def test_run_order_guard():
    job = JobSpec(n=2, order=4, kind="theta", theta_text=HEIS)
    with pytest.raises(Exception):
        run(job)


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

    calls = {"minors": 0, "implicit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hypersurface, "jacobian_minor_family",
                        counted("minors", hypersurface.jacobian_minor_family))
    monkeypatch.setattr(pde, "solve_implicit", counted("implicit", pde.solve_implicit))
    job = JobSpec(n=2, order=6, kind=kind, checks=ALL_CHECKS, **{f"{kind}_text": text})
    report = run(job)
    assert report["cross_check"] == "pass"
    assert report["integrability"] == "pass"
    assert calls == {"minors": 1, "implicit": 1}


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
], ids=["graph-linear-part", "graph-not-real", "f-index-out-of-range",
        "theta-huge-linear-part"])
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
    code, out, _ = invoke(
        ["integrability", "--n", "2", "--order", "5", "--f", "1,1=x2", "--json"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["integrable"] is False
    assert payload["failures"][0]["indices"] == [1, 1, 2]
    assert payload["failures"][0]["discrepancy"] == {"re": "1", "im": "0"}


def test_integrability_command_derived_system(capsys):
    code, out, _ = invoke(
        ["integrability", "--n", "2", "--order", "6", "--theta", QUARTIC, "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["integrable"] is True


def test_integrability_verdict_agrees_with_check(capsys):
    # theta wins over --f in every command, so both read the same input
    flags = ["--n", "2", "--order", "5", "--theta", HEIS, "--f", "1,1=x2", "--json"]
    code, out, _ = invoke(["integrability"] + flags, capsys)
    integrable = json.loads(out)["integrable"]
    check_code, out, _ = invoke(["check", "--checks", "integrability"] + flags, capsys)
    assert json.loads(out)["integrability"] == ("pass" if integrable else "fail")
    assert (code, check_code) == (0, 0)


def test_curvature_command(capsys):
    code, out, _ = invoke(
        ["curvature", "--n", "2", "--order", "5", "--f", "1,1=yx1^2", "--json"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["zero"] is False
    assert payload["witness"]["coefficient"] == {"re": "1/3", "im": "0"}


def test_curvature_command_zero(capsys):
    code, out, _ = invoke(
        ["curvature", "--n", "2", "--order", "5", "--f", "1,1=x1^2 + y", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["zero"] is True


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
    path = tmp_path / "job.psp"
    path.write_text("n = 2\norder = 8\ntheta = " + HEIS + "\n", encoding="utf-8")
    code, out, _ = invoke(
        ["check", "--input", str(path), "--order", "6", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["order_requested"] == 6


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
    from pathlib import Path
    import shlex

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line and line[0] == "pseudosphere"]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_line_examples_run(argv, capsys):
    # exit 1 is a reported verdict (some examples show a failing check);
    # an example that cannot run at all would write an error to stderr
    code, out, err = invoke(argv[1:], capsys)
    assert code in (0, 1)
    assert out and not err
