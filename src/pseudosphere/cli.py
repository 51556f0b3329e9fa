"""Command-line front end: parsing, pipeline orchestration, JSON reports.

Commands
--------
check          full pipeline: reality, Levi data, pseudosphericality
reality        reality identities only
levi           Levi nondegeneracy and signature
derive-pde     print the associated second-order system
integrability  compatibility of a derived or user-supplied system
curvature      main theorem tensor of a model, Hachtroudi tensor of a system
transform      transport a model through a point map

Input is one set of ``key = value`` pairs: the ``--input`` lines, then
the flags (``--f K1,K2=E`` is ``f[K1,K2] = E``), so a flag wins over
the same key in the file.  They give one input: ``theta``, ``graph`` or
the ``f[k1,k2]`` components, and two of these are an input error.
``reality``, ``levi``, ``integrability`` and ``curvature`` are views of
the ``check`` report: each runs its own checks and prints their fields.
``reality``, ``levi``, ``derive-pde`` and ``transform`` need a model;
``integrability`` alone checks a model's derived system.

Exit status: 0 when every requested check passes (an order-qualified
vanishing verdict counts as a pass), 1 when a check fails or the tensor
does not vanish, 2 for input or usage errors, two inputs, malformed
expressions and maps, a map whose image is no graph over the canonical
axes and a ``--checks`` list that leaves nothing to run among them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field

from .errors import (
    InsufficientOrderError,
    LeviDegenerateError,
    NonInvertibleMapError,
    NonUnitError,
    NormalizationError,
    NotGraphableError,
    ParseError,
    PseudosphereError,
    RealityError,
    UnknownVariableError,
    UnsupportedDimensionError,
)
from .expressions import parse_series
from .flatness import cross_check, hachtroudi_tensor, is_pseudospherical
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
from .series import _MAX_ORDER

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


# the input is at fault, not the hypersurface: exit 2
_INPUT_ERRORS = (InputError, UnsupportedDimensionError, NormalizationError,
                 InsufficientOrderError, NonInvertibleMapError, NotGraphableError)

# The lowest --order of each command and check, on a model and on a --f
# system: the jets its derivatives read.  A model needs its linear part,
# the Levi matrix and the elimination differentiate theta, and the tensor
# checks add one certified degree.
_LOWEST_ORDER_MODEL = {
    "reality": 1, "transform": 1, "derive-pde": 2, "levi": 2, "signature": 2,
    "integrability": 3, "pseudosphericality": 5, "cross-check": 5,
}
_LOWEST_ORDER_SYSTEM = {"integrability": 1, "pseudosphericality": 2}
# The highest --n and --order of a job.  The order budget is the series
# packing's, which sizes its exponent fields from it.
_MAX_N = 8


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

    def validate(self, needs=None):
        """Every input rule of a job; returns the table entries ``needs`` whose
        lowest order it checked: the job's checks that apply to its input, or
        the name of a command that runs no report."""
        if self.n is None:
            raise InputError("missing --n")
        if self.n < 2:
            raise UnsupportedDimensionError(
                f"CR dimension must be >= 2, got {self.n}"
            )
        if self.n > _MAX_N:
            raise InputError(f"--n {self.n} exceeds the limit of {_MAX_N}")
        if self.order is None:
            raise InputError("missing --order")
        if self.order > _MAX_ORDER:
            raise InputError(f"--order {self.order} exceeds the limit of {_MAX_ORDER}")
        if self.kind not in ("theta", "graph", "pde"):
            raise InputError(f"unknown kind {self.kind!r}; choose from theta, graph, pde")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise InputError(f"unknown check {c!r}; choose from {ALL_CHECKS}")
        if self.kind == "theta" and not self.theta_text:
            raise InputError("missing --theta expression")
        if self.kind == "graph" and not self.graph_text:
            raise InputError("missing --graph expression")
        if self.kind == "pde":
            if not self.f_texts:
                raise InputError("missing --f components")
            for k1, k2 in self.f_texts:
                if not (1 <= k1 <= self.n and 1 <= k2 <= self.n):
                    raise InputError(f"f[{k1},{k2}]: indices must lie in 1..{self.n}")
        lowest = _LOWEST_ORDER_SYSTEM if self.kind == "pde" else _LOWEST_ORDER_MODEL
        if needs is None:  # a --f system runs only the checks in its table
            needs = [c for c in self.checks if c in lowest]
            if not needs:
                raise InputError("--checks leaves nothing to run for this input")
        name = max(needs, key=lowest.__getitem__)
        if self.order < lowest[name]:
            raise InputError(f"{name} needs --order >= {lowest[name]}")
        return needs


def _parse(text, context, order):
    """Every parse of user text: an expression that does not parse, names a
    variable outside its context or divides by a non-unit is an InputError."""
    try:
        return parse_series(text, context, order)
    except (ParseError, UnknownVariableError, NonUnitError) as exc:
        raise InputError(str(exc)) from exc


def _load(job: JobSpec):
    """Build a validated job's input: the PdeSystem for kind "pde", otherwise
    the model.  Parsing happens here, and so does the reality check of a
    given theta; a graph's model is real by construction once its
    coefficients are checked real."""
    if job.kind == "pde":
        ctx = pde_context(job.n)
        components = {
            key: _parse(expr, ctx, job.order) for key, expr in job.f_texts.items()
        }
        try:
            return PdeSystem(job.n, job.order, components)
        except ValueError as exc:  # f[k1,k2] and f[k2,k1] disagree
            raise InputError(str(exc)) from exc
    if job.kind == "graph":
        phi = _parse(job.graph_text, graph_context(job.n), job.order)
        return from_graph(phi, job.n, job.order)
    theta = _parse(job.theta_text, canonical_context(job.n), job.order)
    return make_model(job.n, theta, job.order)


def _witness_json(witness):
    coefficient = witness.coefficient
    return {
        "component": list(witness.component),
        "monomial": witness.monomial,
        "coefficient": {"re": brief_str(coefficient.re), "im": brief_str(coefficient.im)},
    }


def _integrability(loaded):
    """A --f system's integrability report, a model's derived system's."""
    if isinstance(loaded, PdeSystem):
        return check_complete_integrability(loaded)
    return check_complete_integrability(derive_associated_system(loaded))


def _verdict(loaded):
    """A system's Hachtroudi tensor verdict, a model's main theorem verdict."""
    if isinstance(loaded, PdeSystem):
        return hachtroudi_tensor(loaded).verdict()
    return is_pseudospherical(loaded)


def run(job: JobSpec) -> dict:
    """Execute the requested checks in dependency order; returns the report.

    The report dictionary is deterministic for identical job inputs except
    for the measured timings.  A broken input rule raises InputError; a --f
    system runs those of its checks that read a system.  order_certified is
    the lowest order certified by the checks that ran.
    """
    checks = job.validate()
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
    orders = []

    def timed(name, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            timings[name] = round((time.perf_counter() - start) * 1000.0, 3)

    try:
        # a --f system is given, not built: its load is not the model stage
        loaded = _load(job) if job.kind == "pde" else timed("model", lambda: _load(job))
        if "reality" in checks:
            report["reality"] = "pass"
    except RealityError as exc:
        report["reality"] = f"fail at {exc.monomial}"
        report["errors"].append({"code": "reality", "message": str(exc)})
        return report

    try:
        if "levi" in checks or "signature" in checks:
            data = timed("levi", lambda: levi(loaded))
            report["levi_nondegenerate"] = True
            if "signature" in checks:
                report["signature"] = list(data.signature)
        if "integrability" in checks:
            integrability = timed("integrability", lambda: _integrability(loaded))
            report["integrability"] = "pass" if integrability.ok else "fail"
            orders.append(integrability.checked_order)
            report["errors"] += [
                {"code": "integrability",
                 "message": f"D_{k3}(F[{k1},{k2}]) - D_{k2}(F[{k1},{k3}]) "
                            f"at {monomial}: {brief_str(coeff)}"}
                for k1, k2, k3, monomial, coeff in integrability.failures
            ]
        if "pseudosphericality" in checks:
            verdict = timed("tensor", lambda: _verdict(loaded))
            orders.append(verdict.certified_order)
            report["pseudospherical"] = str(verdict)
            if not verdict.vanishes and job.witness:
                report["witness"] = _witness_json(verdict.witness)
        if "cross-check" in checks:
            result = timed("cross_check", lambda: cross_check(loaded))
            report["cross_check"] = "pass" if result.ok else "fail"
            orders.append(result.certified_order)
            report["errors"] += [
                {"code": "cross_check",
                 "message": f"raw {key} at {monomial}: "
                            f"direct {brief_str(direct)}, transported {brief_str(transported)}"}
                for key, monomial, direct, transported in result.mismatches
            ]
    except LeviDegenerateError as exc:
        # every stage below needs the Levi family; the first to build it fails
        report["levi_nondegenerate"] = False
        report["errors"].append({"code": "levi_degenerate", "message": str(exc)})
    report["order_certified"] = min(orders, default=None)
    return report


def report_passed(report: dict) -> bool:
    verdict = report["pseudospherical"]
    return (
        not report["errors"]
        and report["levi_nondegenerate"] is not False
        and all(report[k] in (None, "pass") for k in ("reality", "integrability", "cross_check"))
        and (verdict is None or verdict.startswith("VanishesToOrder"))
    )


# ----------------------------------------------------------------------
# input: `key = value` pairs from an input file (`#` comments) and flags

_F_KEY = re.compile(r"^f\[\s*(\d+)\s*,\s*(\d+)\s*\]$")
_MAPZ_KEY = re.compile(r"^map_z\[\s*(\d+)\s*\]$")


def _assign(values: dict, key: str, value):
    """Set one `key = value` pair, from an input-file line or a flag."""
    match = _F_KEY.match(key)
    if match:
        values["f"][(int(match.group(1)), int(match.group(2)))] = value
        return
    match = _MAPZ_KEY.match(key)
    if match:
        values["map_z"][int(match.group(1))] = value
        return
    if key in ("n", "order"):
        try:
            values[key] = int(value)
        except ValueError:
            raise InputError(f"{key} must be an integer") from None
    elif key in ("theta", "graph", "map_w"):
        values[key] = value
    elif key == "checks":
        values["checks"] = tuple(
            part.strip() for part in value.split(",") if part.strip()
        )
    else:
        raise InputError(f"unknown key {key!r}")


def parse_input_file(text: str) -> dict:
    values = {"f": {}, "map_z": {}}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        try:
            if not equals:
                raise InputError("expected `key = value`")
            _assign(values, key.strip(), value.strip())
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return values


def _resolve(args):
    """The command's input and the merged `key = value` pairs.

    The input is the JobSpec of check and its views, and otherwise the
    loaded model.
    """
    text = ""
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    values = parse_input_file(text)
    # then each given flag, as the `key = value` pair it spells out
    for key in ("n", "order", "theta", "graph", "map_w", "checks"):
        if getattr(args, key, None) not in (None, ""):
            _assign(values, key, getattr(args, key))
    for key in ("f", "map_z"):
        for entry in getattr(args, key, None) or ():
            index, _, expr = entry.partition("=")
            _assign(values, f"{key}[{index}]", expr)

    given = [key for key in ("theta", "graph") if values.get(key)]
    given += [f"f[{k1},{k2}]" for k1, k2 in values["f"]][:1]
    if len(given) > 1:
        raise InputError(f"{given[0]} and {given[1]} are both given; "
                         "give one of theta, graph and f[k1,k2]")
    kind = "graph" if values.get("graph") else "pde" if values["f"] else "theta"
    if kind == "pde" and args.needs_model:
        raise InputError(f"{args.command} needs --theta or --graph")
    checks = values.get("checks", ALL_CHECKS if kind == "pde" else DEFAULT_CHECKS)
    if checks == ("all",):
        checks = ALL_CHECKS
    report = args.handler is cmd_check
    job = JobSpec(
        n=values.get("n"),
        order=values.get("order"),
        kind=kind,
        theta_text=values.get("theta"),
        graph_text=values.get("graph"),
        f_texts=values["f"],
        checks=checks if report else (),
        witness=args.witness,
    )
    if report:
        return job, values  # run validates it
    job.validate(needs=(args.command,))
    return _load(job), values


# ----------------------------------------------------------------------
# command handlers: each takes what _resolve built and returns the JSON
# payload, the text lines and whether everything passed


def cmd_check(args, job, values):
    """check and its views reality, levi, integrability and curvature: run
    the job and report."""
    report = run(job)
    if args.fields:
        lines = [f"{key}: {report[key]}" for key in args.fields]
    else:
        lines = [f"n = {report['n']}, requested order = {report['order_requested']}"]
        lines += [
            f"{key}: {report[key]}"
            for key in ("reality", "levi_nondegenerate", "signature", "integrability",
                        "pseudospherical", "cross_check", "order_certified")
            if report[key] is not None
        ]
        if report["witness"]:
            lines.append(f"witness: {report['witness']}")
    lines += [f"error[{error['code']}]: {error['message']}" for error in report["errors"]]
    return report, lines, report_passed(report)


def cmd_derive_pde(args, model, values):
    system = derive_associated_system(model)
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
    return payload, lines, True


def cmd_transform(args, model, values):
    n, order = model.n, model.order
    if set(values["map_z"]) != set(range(1, n + 1)) or not values.get("map_w"):
        raise InputError("transform needs --map-z k=<expr> for each k and --map-w")
    ctx = map_context(n)
    zmaps = [_parse(values["map_z"][k], ctx, order) for k in range(1, n + 1)]
    image = apply_biholomorphism(model, zmaps, _parse(values["map_w"], ctx, order))
    payload = {
        "n": image.n,
        "order_certified": image.order,
        "theta": image.theta.__str__(brief_str),
        "reality": "pass",  # the image of a real model is real by construction
    }
    return payload, [f"theta' = {payload['theta']}"], True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosphere",
        description="Exact pseudosphericality tests for hypersurface models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # subcommand, handler, whether it needs a model (theta or a graph), and
    # for the views of check the checks they always run and the fields they
    # print
    for name, handler, needs_model, checks, fields in (
        ("check", cmd_check, False, None, None),
        ("reality", cmd_check, True, "reality", ("reality",)),
        ("levi", cmd_check, True, "reality,levi,signature",
         ("reality", "levi_nondegenerate", "signature")),
        ("derive-pde", cmd_derive_pde, True, None, None),
        ("integrability", cmd_check, False, "integrability",
         ("integrability", "order_certified")),
        ("curvature", cmd_check, False, "pseudosphericality",
         ("pseudospherical", "order_certified")),
        ("transform", cmd_transform, True, None, None),
    ):
        p = sub.add_parser(name)
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
        p.set_defaults(
            handler=handler, needs_model=needs_model, checks=checks, fields=fields
        )
    sub.choices["check"].add_argument(
        "--checks", help=f"comma list from {', '.join(ALL_CHECKS)} (or 'all')"
    )
    sub.choices["curvature"].set_defaults(witness=True)  # its report names the witness
    transform = sub.choices["transform"]
    transform.add_argument(
        "--map-z",
        action="append",
        metavar="K=EXPR",
        help="z-component of the point map (repeatable)",
    )
    transform.add_argument("--map-w", metavar="EXPR", help="w-component of the map")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, passed = args.handler(args, *_resolve(args))
    except PseudosphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
