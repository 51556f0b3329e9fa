#!/usr/bin/env python3
"""Print every report and derived object of a fixed set of inputs, as text.

Two commits whose outputs are byte-identical compute the same reports,
systems, tensors, transported models and implicit solutions on these
inputs; a refactor that claims to keep the behaviour diffs this output
against the commit before it, and ``tools/golden.py`` checks it, one
record per input, against the committed ``tools/reports.golden``.  The
inputs are the first 12 pipeline-n4, 9 nonrigid-n2 and 48 screen
benchmark inputs (``perfbench/inputs.py``) of seeds 1 and 2.  For each
input it prints:

* the ``cli.run`` report of the benchmark's job (``perfbench/worker.py``),
  with the witness on and ``timings_ms`` removed, once for the input's own
  checks and once for all of them;
* each component of the derived system, with its ``.order``;
* the ``main_theorem_tensor`` certified order and each of its components,
  then the ``cross_check`` certified order and each transported component,
  each component with its key and ``.order``, in sorted key order;
* for a graph input, whether ``check_reality`` passes on its model.

It then prints two fixed ``apply_biholomorphism`` images, each with whether
``check_reality`` passes on it, and one fixed three-unknown
``solve_implicit`` solution, with their orders.  The library builds the
models of graph inputs and the images real by construction and checks no
reality on them at run time; the script exits 1 when one of them is not
real.

    python3 tools/reports.py > reports.txt

It needs only the standard library and changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pseudosphere as ps  # noqa: E402
from pseudosphere import cli  # noqa: E402
from inputs import ALL_CHECKS, generate  # noqa: E402
from worker import job_for  # noqa: E402

COUNTS = {"pipeline-n4": 12, "nonrigid-n2": 9, "screen": 48}
SEEDS = (1, 2)


def _report(case) -> str:
    """The benchmark's report of the case, witness on, without timings."""
    report = cli.run(job_for(case))
    del report["timings_ms"]
    return json.dumps(report, sort_keys=True)


def _model(case):
    if case.kind == "graph":
        phi = ps.parse_series(case.text, ps.graph_context(case.n), case.order)
        return ps.from_graph(phi, case.n, case.order)
    theta = ps.parse_series(case.text, ps.canonical_context(case.n), case.order)
    return ps.make_model(case.n, theta, case.order)


def _system_lines(model):
    system = ps.derive_associated_system(model)
    lines = [f"  order {system.order}"]
    for key in system.component_keys():
        component = system.component(*key)
        lines.append(f"  F{key} order {component.order}: {component}")
    return lines


def _tensor_lines(model):
    direct, report = ps.main_theorem_tensor(model), ps.cross_check(model)
    lines = [f"  tensor certified {direct.certified_order}"]
    for key in direct.component_keys():
        component = direct.components[key]
        lines.append(f"  W{key} order {component.order}: {component}")
    lines.append(f"  cross_check certified {report.certified_order}")
    for key in sorted(report.transported):
        component = report.transported[key]
        lines.append(f"  T{key} order {component.order}: {component}")
    return lines


def _transported():
    """Two (n, image) pairs: models through maps with nonlinear and non-real
    terms."""
    images = []
    for n, order, theta, zmaps, wmap in (
        (2, 4, "-wb + z1*z1b + z2*z2b + z1^2*z1b^2",
         ["z1 + i*z1*w", "z2"], "w + (1/2*i)*z1^2"),
        (3, 6, "-wb + z1*z1b + z2*z2b - z3*z3b + z1^2*z1b^2 + z2*z3*z2b*z3b",
         ["z1 + z2*w", "z2 + i*z1^2", "z3 - z1*z3"], "w + z1*z2 + (1/2)*w^2"),
    ):
        model = ps.make_model(n, ps.parse_series(theta, ps.canonical_context(n), order))
        mctx = ps.map_context(n)
        image = ps.apply_biholomorphism(
            model, [ps.parse_series(z, mctx, order) for z in zmaps],
            ps.parse_series(wmap, mctx, order))
        images.append((n, image))
    return images


def _print_reality(label, model) -> bool:
    """Print and return whether ``model`` passes ``check_reality``."""
    ok = ps.check_reality(model).ok
    print(f"{label} real {ok}")
    return ok


def _implicit():
    """Three equations in (p1, p2; u1, u2, u3) pinned to three targets."""
    ctx = ps.VariableContext(("p1", "p2", "u1", "u2", "u3"))
    system = [
        ps.parse_series(text, ctx, 7) for text in (
            "u1 + 2*u2 - p1*u3 + u1*u2 + (1/3)*p2^2",
            "u2 - i*u3 + p1*p2 + u1^2*u3 - p2*u2^2",
            "3*u3 + u1 - (1/2)*p1^2*u2 + u3^3 + p1*u1*u2",
        )
    ]
    solution = ps.solve_implicit(system, ["u1", "u2", "u3"], ["t1", "t2", "t3"])
    return [f"implicit {u} in {s.context.names} order {s.order}: {s}"
            for u, s in solution.items()]


def main() -> int:
    real = True
    for workload, count in COUNTS.items():
        for seed in SEEDS:
            cases = itertools.islice(generate(workload, seed), count)
            for index, case in enumerate(cases):
                head = f"{workload} seed {seed} #{index}"
                print(f"{head} own {_report(case)}")
                print(f"{head} all {_report(replace(case, checks=ALL_CHECKS))}")
                model = _model(case)
                print(f"{head} system")
                for line in _system_lines(model) + _tensor_lines(model):
                    print(line)
                if case.kind == "graph":
                    real &= _print_reality(head, model)
    for n, image in _transported():
        print(f"transform n={n} order {image.order}: {image.theta}")
        real &= _print_reality(f"transform n={n}", image)
    for line in _implicit():
        print(line)
    return 0 if real else 1


if __name__ == "__main__":
    sys.exit(main())
