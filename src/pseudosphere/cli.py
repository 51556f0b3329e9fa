"""Command-line front end: parsing, pipeline orchestration, JSON reports.

Commands
--------
check          full pipeline: reality, Levi data, pseudosphericality
reality        reality identities only
levi           Levi nondegeneracy and signature
derive-pde     print the associated second-order system
integrability  compatibility of a derived or user-supplied system
curvature      trace-adjusted tensor of a user-supplied system
transform      transport a model through a point map

Exit status: 0 when every requested check passes (an order-qualified
vanishing verdict counts as a pass), 1 when a check fails or the tensor
does not vanish, 2 for input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field

from .errors import (
    LeviDegenerateError,
    NormalizationError,
    ParseError,
    PseudosphereError,
    RealityError,
    UnsupportedDimensionError,
)
from .expressions import parse_series
from .flatness import (
    PseudosphericalVerdict,
    cross_check,
    hachtroudi_tensor,
    is_pseudospherical,
)
from .hypersurface import (
    apply_biholomorphism,
    canonical_context,
    from_graph,
    graph_context,
    levi,
    make_model,
    map_context,
)
from .pde import PdeSystem, check_complete_integrability, derive_associated_system, pde_context
from .scalars import brief_str

ALL_CHECKS = (
    "reality",
    "levi",
    "signature",
    "integrability",
    "pseudosphericality",
    "cross-check",
)
DEFAULT_CHECKS = ("reality", "levi", "signature", "pseudosphericality")


class InputError(PseudosphereError):
    """Bad usage or malformed input; mapped to exit status 2."""


@dataclass
class JobSpec:
    n: int
    order: int
    kind: str                      # "theta" | "graph" | "pde"
    theta_text: str | None = None
    graph_text: str | None = None
    f_texts: dict = field(default_factory=dict)
    checks: tuple = DEFAULT_CHECKS
    witness: bool = False

    def validate(self):
        if self.n is None:
            raise InputError("missing --n")
        if self.n < 2:
            raise UnsupportedDimensionError(
                f"CR dimension must be >= 2, got {self.n}"
            )
        if self.order is None:
            raise InputError("missing --order")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise InputError(f"unknown check {c!r}; choose from {ALL_CHECKS}")
        needs_tensor = {"pseudosphericality", "cross-check"} & set(self.checks)
        if self.kind in ("theta", "graph") and needs_tensor and self.order < 5:
            raise InputError(
                "pseudosphericality needs --order >= 5 (fourth-order jets)"
            )
        if self.kind == "theta" and not self.theta_text:
            raise InputError("missing --theta expression")
        if self.kind == "graph" and not self.graph_text:
            raise InputError("missing --graph expression")
        if self.kind == "pde":
            if not self.f_texts:
                raise InputError("missing --f components")
            if "cross-check" in self.checks:
                raise InputError("cross-check requires a hypersurface input")
            for k1, k2 in self.f_texts:
                if not (1 <= k1 <= self.n and 1 <= k2 <= self.n):
                    raise InputError(f"f[{k1},{k2}]: indices must lie in 1..{self.n}")


def _load(job: JobSpec):
    """Validate the job and build its input: the PdeSystem for kind "pde",
    otherwise the model (parsing and reality verification happen here)."""
    job.validate()
    if job.kind == "pde":
        ctx = pde_context(job.n)
        components = {
            key: parse_series(expr, ctx, job.order) for key, expr in job.f_texts.items()
        }
        return PdeSystem(job.n, job.order, components)
    if job.kind == "graph":
        phi = parse_series(job.graph_text, graph_context(job.n), job.order)
        return from_graph(phi, job.n, job.order)
    theta = parse_series(job.theta_text, canonical_context(job.n), job.order)
    return make_model(job.n, theta, job.order)


def _coefficient_json(value):
    return {"re": brief_str(value.re), "im": brief_str(value.im)}


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "component": list(witness.component),
        "monomial": witness.monomial,
        "coefficient": _coefficient_json(witness.coefficient),
    }


def run(job: JobSpec) -> dict:
    """Execute the requested checks in dependency order; returns the report.

    The report dictionary is deterministic for identical job inputs except
    for the measured timings.
    """
    report = {
        "n": job.n,
        "order_requested": job.order,
        "order_certified": None,
        "reality": None,
        "levi_nondegenerate": None,
        "signature": None,
        "integrability": None,
        "pseudospherical": None,
        "cross_check": None,
        "witness": None,
        "timings_ms": {},
        "errors": [],
    }
    timings = report["timings_ms"]

    def timed(name, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            timings[name] = round((time.perf_counter() - start) * 1000.0, 3)

    if job.kind == "pde":
        # a raw second-order system: only the jet-side checks apply
        system = _load(job)
        if "integrability" in job.checks:
            result = timed(
                "integrability", lambda: check_complete_integrability(system)
            )
            report["integrability"] = "pass" if result.ok else "fail"
        if "pseudosphericality" in job.checks:
            tensor = timed("tensor", lambda: hachtroudi_tensor(system))
            witness = tensor.first_nonzero_witness()
            report["order_certified"] = tensor.certified_order
            verdict = PseudosphericalVerdict(
                witness is None, tensor.certified_order, witness
            )
            report["pseudospherical"] = str(verdict)
            if witness is not None and job.witness:
                report["witness"] = _witness_json(witness)
        return report

    try:
        model = timed("model", lambda: _load(job))
        if "reality" in job.checks:
            report["reality"] = "pass"
    except RealityError as exc:
        report["reality"] = f"fail at {exc.monomial}"
        report["errors"].append({"code": "reality", "message": str(exc)})
        return report

    if "levi" in job.checks or "signature" in job.checks:
        try:
            data = timed("levi", lambda: levi(model))
            report["levi_nondegenerate"] = True
            if "signature" in job.checks:
                report["signature"] = list(data.signature)
        except LeviDegenerateError as exc:
            report["levi_nondegenerate"] = False
            report["errors"].append({"code": "levi_degenerate", "message": str(exc)})
            return report

    if "integrability" in job.checks:
        def run_integrability():
            system = derive_associated_system(model)
            return check_complete_integrability(system)

        try:
            integrability = timed("integrability", run_integrability)
            report["integrability"] = "pass" if integrability.ok else "fail"
        except LeviDegenerateError as exc:
            report["integrability"] = "unavailable"
            report["errors"].append({"code": "levi_degenerate", "message": str(exc)})

    if "pseudosphericality" in job.checks:
        try:
            verdict = timed("tensor", lambda: is_pseudospherical(model))
            report["order_certified"] = verdict.certified_order
            report["pseudospherical"] = str(verdict)
            if not verdict.vanishes and job.witness:
                report["witness"] = _witness_json(verdict.witness)
        except LeviDegenerateError as exc:
            report["levi_nondegenerate"] = False
            report["errors"].append({"code": "levi_degenerate", "message": str(exc)})
            return report

    if "cross-check" in job.checks:
        result = timed("cross_check", lambda: cross_check(model))
        report["cross_check"] = "pass" if result.ok else "fail"
        if report["order_certified"] is None:
            report["order_certified"] = result.certified_order

    return report


def report_passed(report: dict) -> bool:
    if report["errors"]:
        return False
    if report["reality"] not in (None, "pass"):
        return False
    if report["levi_nondegenerate"] is False:
        return False
    if report["integrability"] not in (None, "pass"):
        return False
    if report["pseudospherical"] is not None and not report[
        "pseudospherical"
    ].startswith("VanishesToOrder"):
        return False
    if report["cross_check"] not in (None, "pass"):
        return False
    return True


# ----------------------------------------------------------------------
# input files: line-oriented `key = value`, `#` comments

_F_KEY = re.compile(r"^f\[(\d+),(\d+)\]$")
_MAPZ_KEY = re.compile(r"^map_z\[(\d+)\]$")


def parse_input_file(text: str) -> dict:
    values = {"f": {}, "map_z": {}}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        match = _F_KEY.match(key)
        if match:
            values["f"][(int(match.group(1)), int(match.group(2)))] = value
            continue
        match = _MAPZ_KEY.match(key)
        if match:
            values["map_z"][int(match.group(1))] = value
            continue
        if key in ("n", "order"):
            try:
                values[key] = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: {key} must be an integer") from None
        elif key in ("theta", "graph", "map_w"):
            values[key] = value
        elif key == "checks":
            values["checks"] = tuple(
                part.strip() for part in value.split(",") if part.strip()
            )
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    return values


# ----------------------------------------------------------------------
# command handlers


def _emit(args, payload, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _merge_input(args):
    merged = {"f": {}, "map_z": {}}
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                merged.update(parse_input_file(handle.read()))
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    if getattr(args, "n", None) is not None:
        merged["n"] = args.n
    if getattr(args, "order", None) is not None:
        merged["order"] = args.order
    if getattr(args, "theta", None):
        merged["theta"] = args.theta
    if getattr(args, "graph", None):
        merged["graph"] = args.graph
    for entry in getattr(args, "f", None) or []:
        head, _, expr = entry.partition("=")
        try:
            k1_text, k2_text = head.split(",")
            merged["f"][(int(k1_text), int(k2_text))] = expr
        except ValueError:
            raise InputError(f"--f expects `k1,k2=<expr>`, got {entry!r}") from None
    for entry in getattr(args, "map_z", None) or []:
        head, _, expr = entry.partition("=")
        try:
            merged["map_z"][int(head)] = expr
        except ValueError:
            raise InputError(f"--map-z expects `k=<expr>`, got {entry!r}") from None
    if getattr(args, "map_w", None):
        merged["map_w"] = args.map_w
    if getattr(args, "checks", None):
        merged["checks"] = tuple(
            part.strip() for part in args.checks.split(",") if part.strip()
        )
    return merged


def _job_from_merged(merged, args, default_checks):
    checks = merged.get("checks", default_checks)
    if checks == ("all",):
        checks = ALL_CHECKS
    if merged.get("graph"):
        kind = "graph"
    elif merged.get("theta") or not merged["f"]:
        kind = "theta"
    else:
        kind = "pde"
        if "checks" in merged:
            checks = tuple(
                c for c in checks if c in ("integrability", "pseudosphericality")
            )
        else:
            checks = ("integrability", "pseudosphericality")
    return JobSpec(
        n=merged.get("n"),
        order=merged.get("order"),
        kind=kind,
        theta_text=merged.get("theta"),
        graph_text=merged.get("graph"),
        f_texts=dict(merged["f"]),
        checks=checks,
        witness=getattr(args, "witness", False),
    )


def cmd_check(args) -> int:
    merged = _merge_input(args)
    job = _job_from_merged(merged, args, DEFAULT_CHECKS)
    report = run(job)
    lines = [f"n = {report['n']}, requested order = {report['order_requested']}"]
    for key in (
        "reality",
        "levi_nondegenerate",
        "signature",
        "integrability",
        "pseudospherical",
        "cross_check",
        "order_certified",
    ):
        if report[key] is not None:
            lines.append(f"{key}: {report[key]}")
    if report["witness"]:
        lines.append(f"witness: {report['witness']}")
    for error in report["errors"]:
        lines.append(f"error[{error['code']}]: {error['message']}")
    _emit(args, report, lines)
    return 0 if report_passed(report) else 1


def cmd_reality(args) -> int:
    merged = _merge_input(args)
    job = _job_from_merged(merged, args, ("reality",))
    job.checks = ("reality",)
    report = run(job)
    _emit(args, report, [f"reality: {report['reality']}"])
    return 0 if report_passed(report) else 1


def cmd_levi(args) -> int:
    merged = _merge_input(args)
    job = _job_from_merged(merged, args, ("reality", "levi", "signature"))
    report = run(job)
    lines = [
        f"reality: {report['reality']}",
        f"levi_nondegenerate: {report['levi_nondegenerate']}",
        f"signature: {report['signature']}",
    ]
    _emit(args, report, lines)
    return 0 if report_passed(report) else 1


def _loaded(merged, args):
    """The input of a command that runs no checks: a model or a PdeSystem."""
    job = _job_from_merged(merged, args, ())
    job.checks = ()
    return _load(job)


def _model(merged, args, command):
    loaded = _loaded(merged, args)
    if isinstance(loaded, PdeSystem):
        raise InputError(f"{command} needs --theta or --graph")
    return loaded


def _system(args) -> PdeSystem:
    loaded = _loaded(_merge_input(args), args)
    if isinstance(loaded, PdeSystem):
        return loaded
    return derive_associated_system(loaded)


def cmd_derive_pde(args) -> int:
    system = derive_associated_system(_model(_merge_input(args), args, "derive-pde"))
    payload = {
        "n": system.n,
        "order_certified": system.order,
        "components": {
            f"{k1},{k2}": system.component(k1, k2).__str__(brief_str)
            for k1, k2 in system.component_keys()
        },
    }
    lines = [f"derived system, certified to order {system.order}"]
    lines += [
        f"F[{key}] = {value}" for key, value in sorted(payload["components"].items())
    ]
    _emit(args, payload, lines)
    return 0


def cmd_integrability(args) -> int:
    result = check_complete_integrability(_system(args))
    payload = {
        "integrable": result.ok,
        "checked_order": result.checked_order,
        "failures": [
            {
                "indices": [k1, k2, k3],
                "monomial": monomial,
                "discrepancy": _coefficient_json(coeff),
            }
            for (k1, k2, k3, monomial, coeff) in result.failures
        ],
    }
    lines = [f"integrable: {result.ok} (checked to order {result.checked_order})"]
    lines += [
        f"failure at D_{k3}(F[{k1},{k2}]) - D_{k2}(F[{k1},{k3}]): "
        f"{monomial} -> {brief_str(coeff)}"
        for (k1, k2, k3, monomial, coeff) in result.failures
    ]
    _emit(args, payload, lines)
    return 0 if result.ok else 1


def cmd_curvature(args) -> int:
    tensor = hachtroudi_tensor(_system(args))
    witness = tensor.first_nonzero_witness()
    payload = {
        "zero": witness is None,
        "order_certified": tensor.certified_order,
        "witness": _witness_json(witness),
    }
    lines = [
        f"tensor vanishes to order {tensor.certified_order}"
        if witness is None
        else f"nonzero component {witness.component} at {witness.monomial}: "
        f"{brief_str(witness.coefficient)}"
    ]
    _emit(args, payload, lines)
    return 0 if witness is None else 1


def cmd_transform(args) -> int:
    merged = _merge_input(args)
    model = _model(merged, args, "transform")
    n, order = model.n, model.order
    if set(merged["map_z"]) != set(range(1, n + 1)) or not merged.get("map_w"):
        raise InputError("transform needs --map-z k=<expr> for each k and --map-w")
    ctx = map_context(n)
    zmaps = [parse_series(merged["map_z"][k], ctx, order) for k in range(1, n + 1)]
    wmap = parse_series(merged["map_w"], ctx, order)
    image = apply_biholomorphism(model, zmaps, wmap)
    payload = {
        "n": image.n,
        "order_certified": image.order,
        "theta": image.theta.__str__(brief_str),
        "reality": "pass",  # re-verified during model construction
    }
    _emit(args, payload, [f"theta' = {payload['theta']}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosphere",
        description="Exact pseudosphericality tests for hypersurface models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_maps=False, with_checks=False):
        p.add_argument("--n", type=int, help="CR dimension (>= 2)")
        p.add_argument("--order", type=int, help="jet truncation order")
        p.add_argument("--theta", help="defining expression in z*, z*b, wb")
        p.add_argument("--graph", help="real graph expression in x*, y*, v")
        p.add_argument(
            "--f",
            action="append",
            metavar="K1,K2=EXPR",
            help="system component in x*, y, yx* (repeatable)",
        )
        p.add_argument("--input", help="line-oriented key = value input file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--witness", action="store_true", help="include the nonvanishing witness"
        )
        if with_checks:
            p.add_argument(
                "--checks",
                help=f"comma list from {', '.join(ALL_CHECKS)} (or 'all')",
            )
        if with_maps:
            p.add_argument(
                "--map-z",
                action="append",
                metavar="K=EXPR",
                help="z-component of the point map (repeatable)",
            )
            p.add_argument("--map-w", metavar="EXPR", help="w-component of the map")

    handlers = {}
    for name, handler, kwargs in (
        ("check", cmd_check, {"with_checks": True}),
        ("reality", cmd_reality, {}),
        ("levi", cmd_levi, {}),
        ("derive-pde", cmd_derive_pde, {}),
        ("integrability", cmd_integrability, {}),
        ("curvature", cmd_curvature, {}),
        ("transform", cmd_transform, {"with_maps": True}),
    ):
        p = sub.add_parser(name)
        add_common(p, **kwargs)
        p.set_defaults(handler=handler)
        handlers[name] = handler
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ParseError, UnsupportedDimensionError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudosphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
