#!/usr/bin/env python3
"""Mutation gate for the order bookkeeping.

Each mutant replaces one text in one file under ``src/`` by another.  For
each mutant the script copies ``src/`` and ``tests/`` (with
``pyproject.toml``, and the README and demos that some tests read) into a
fresh temporary directory, applies the mutant there and runs the
mutant's tests against the copy.  The outcome must match the mutant's
expectation:

* ``killed``: at least one of the tests fails;
* ``equivalent: <argument>``: every test passes, and the argument says
  why no test can tell the mutant from the program.

The unmutated copy is run first on the union of the tests, which must
pass.  The script exits 1 when that baseline fails, when an old text no
longer occurs exactly once, when a test run cannot be collected, when an
expected kill survives or when an equivalent mutant is killed.

    python3 tools/mutants.py

It needs only the standard library and the test suite's own
requirements (pytest, hypothesis).  It is not a test module, so pytest
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # relative to src/pseudosphere
    old: str
    new: str
    tests: tuple    # pytest node ids, relative to the repository root
    expect: str     # "killed" or "equivalent: <argument>"


MUTANTS = [
    # -- certified and checked orders ---------------------------------
    Mutant(
        "hachtroudi-certified-plus-one", "flatness.py",
        "n=n, certified_order=system.order - 2, components=components",
        "n=n, certified_order=system.order - 1, components=components",
        ("tests/test_pde.py::test_system_order_is_its_lowest_component_order",
         "tests/test_order_soundness.py::test_minors_and_tensors_agree_at_orders_d_and_d_plus_two"),
        "killed",
    ),
    Mutant(
        "main-tensor-certified-plus-one", "flatness.py",
        "n=n, certified_order=model.order - 4, components=components",
        "n=n, certified_order=model.order - 3, components=components",
        ("tests/test_flatness.py::test_heisenberg_verdict",
         "tests/test_flatness.py::test_verdict_at_reduced_order",
         "tests/test_order_soundness.py::test_minors_and_tensors_agree_at_orders_d_and_d_plus_two"),
        "killed",
    ),
    Mutant(
        "integrability-checked-plus-one", "pde.py",
        "checked = system.order - 1",
        "checked = system.order",
        ("tests/test_pde.py::test_system_order_is_its_lowest_component_order",),
        "killed",
    ),
    Mutant(
        "matrix-order-max", "matrices.py",
        "self.order = min(e.order for row in entries for e in row)",
        "self.order = max(e.order for row in entries for e in row)",
        ("tests/test_matrices.py::test_adjugate_identity_for_size_five",
         "tests/test_flatness.py::test_transfer_order_counts_zero_column_entries"),
        "killed",
    ),
    # cross_check reads everything at one order: a derived system one
    # order short bounds it, and the routes are compared through it only
    Mutant(
        "cross-check-order-ignores-jets", "flatness.py",
        "raw.values(), jets.values(), assignment.values(), [family.delta]))",
        "raw.values(), assignment.values(), [family.delta]))",
        ("tests/test_flatness.py::test_cross_check_order_is_bounded_by_a_shorter_derived_system",
         "tests/test_flatness.py::test_cross_check_order_is_bounded_when_the_raw_tables_differ_only_in_order"),
        "killed",
    ),
    Mutant(
        "cross-check-compared-one-past-the-order", "flatness.py",
        "table = _pulled_back(jets, assignment, family.delta, order)",
        "table = _pulled_back(jets, assignment, family.delta, order + 1)",
        ("tests/test_flatness.py::test_cross_check_compares_a_longer_derived_system_at_the_common_order",),
        "killed",
    ),
    Mutant(
        "cross-check-order-ignores-delta", "flatness.py",
        "raw.values(), jets.values(), assignment.values(), [family.delta]))",
        "raw.values(), jets.values(), assignment.values()))",
        ("tests/test_flatness.py",),
        "equivalent: every direct raw entry is a Cramer transfer, whose order "
        "is at most delta's (MinorFamily.transfer), so the raw entries bound "
        "the order by delta's already; delta stays in the minimum so that "
        "the pull-back's bound is read off its own operands",
    ),
    # a zero second derivative is not composed, so a flat model hands
    # PdeSystem no component, and the argument alone is the system's order
    Mutant(
        "eliminate-system-order-plus-one", "pde.py",
        "return PdeSystem(n, order, components)",
        "return PdeSystem(n, order + 1, components)",
        ("tests/test_pde.py::test_heisenberg_system_is_zero",),
        "killed",
    ),
    Mutant(
        "total-derivative-variable-one-short", "pde.py",
        'TruncatedSeries.variable(system.context, g.order, f"yx{k}"), dy)',
        'TruncatedSeries.variable(system.context, g.order - 1, f"yx{k}"), dy)',
        ("tests/test_pde.py", "tests/test_flatness.py"),
        "equivalent: the sum of products takes the lowest of its operands' "
        "orders, and its operand g.partial('y') has order g.order - 1, so "
        "it has order g.order - 1 with either variable order; the total "
        "takes the minimum with g.partial(f'x{k}'), also of order g.order - 1",
    ),
    # -- the order cuts that drop unused degrees ----------------------
    Mutant(
        "eliminate-solves-one-short", "pde.py",
        "system = [s.truncate(max(order, 1)) for s in [q] + firsts]",
        "system = [s.truncate(max(order - 1, 1)) for s in [q] + firsts]",
        ("tests/test_pde.py::test_elimination_solves_to_the_kept_order_only",),
        "killed",
    ),
    Mutant(
        "delta-cut-one-short", "flatness.py",
        "delta = delta.truncate(order)",
        "delta = delta.truncate(order - 1)",
        ("tests/test_flatness.py::test_transported_route_is_the_uncut_delta_cube_on_a_graph",),
        "killed",
    ),
    # -- the totals the integrability check forms ---------------------
    # only D_k F_{k,k} goes unread by the triples; skipping every k = i
    # leaves D_1 F_{1,2}, which the triple (1, 1, 2) reads, never formed
    Mutant(
        "integrability-skip-rule-narrowed", "pde.py",
        "if not i == j == k]",
        "if k != i]",
        ("tests/test_pde.py::test_derived_systems_are_integrable",
         "tests/test_pde.py::test_integrability_differentiates_each_component_once"),
        "killed",
    ),
    # -- the lowest --order of an input -------------------------------
    Mutant(
        "tensor-lowest-order-one-short", "cli.py",
        '"pseudosphericality": 5, "cross-check": 5',
        '"pseudosphericality": 4, "cross-check": 4',
        ("tests/test_cli.py::test_order_below_a_commands_lowest_names_that_order",),
        "killed",
    ),
    Mutant(
        "levi-lowest-order-one-short", "cli.py",
        '"levi": 2,',
        '"levi": 1,',
        ("tests/test_cli.py::test_order_below_a_commands_lowest_names_that_order[levi]",
         "tests/test_cli.py::test_order_below_a_commands_lowest_names_that_order[check-levi]"),
        "killed",
    ),
    Mutant(
        "system-tensor-lowest-order-one-short", "cli.py",
        '{"integrability": 1, "pseudosphericality": 2}',
        '{"integrability": 1, "pseudosphericality": 1}',
        ("tests/test_cli.py::test_order_below_a_commands_lowest_names_that_order",),
        "killed",
    ),
    # -- the report's certified order ---------------------------------
    Mutant(
        "order-certified-max", "cli.py",
        'report["order_certified"] = min(orders, default=None)',
        'report["order_certified"] = max(orders, default=None)',
        ("tests/test_cli.py::test_order_certified_is_the_lowest_order_of_the_checks_that_ran",),
        "killed",
    ),
    # -- one path for a model and a fundamental solution --------------
    Mutant(
        "role-split-one-late", "hypersurface.py",
        "return series, names[: obj.n], names[obj.n :]",
        "return series, names[: obj.n + 1], names[obj.n + 1 :]",
        ("tests/test_pde.py::test_theta_is_its_own_fundamental_solution",),
        "killed",
    ),
    Mutant(
        "minors-levi-check-dropped", "hypersurface.py",
        '    if not family.delta.constant_term():\n'
        '        raise LeviDegenerateError("Levi determinant vanishes at the origin")\n',
        "",
        ("tests/test_pde.py::test_degenerate_model_rejected",),
        "killed",
    ),
    # -- normalization and reality of the models the library solves for ---
    # a map can break a solved theta's normalization, so that check stays
    Mutant(
        "solved-model-normalization-dropped", "hypersurface.py",
        "    return _normalized_model(n, theta)\n",
        "    return HypersurfaceModel(n=n, theta=theta)\n",
        ("tests/test_hypersurface.py::test_normalization_breaking_map_rejected",),
        "killed",
    ),
    # a solved theta is real by construction and is not re-checked at run
    # time, so these two are killed by the test's own check_reality
    # assertion, not by a RealityError from the library
    Mutant(
        "graph-y-without-one-over-i", "hypersurface.py",
        'assignment[f"y{k}"] = (zk - zkb).scale(minus_half_i)',
        'assignment[f"y{k}"] = (zk - zkb).scale(half)',
        ("tests/test_hypersurface.py::test_from_graph_outputs_pass_reality",),
        "killed",
    ),
    Mutant(
        "map-conjugate-components-unconjugated", "hypersurface.py",
        "return g._embedded(big, none + zs + [n, None], conjugate=True)",
        "return g._embedded(big, none + zs + [n, None])",
        ("tests/test_hypersurface.py::test_from_graph_outputs_pass_reality",),
        "killed",
    ),
    # -- one witness per model ----------------------------------------
    Mutant(
        "model-verdict-reads-derived-system", "cli.py",
        "    return is_pseudospherical(loaded)\n",
        "    return hachtroudi_tensor(derive_associated_system(loaded)).verdict()\n",
        ("tests/test_cli.py::test_system_verdicts_agree_between_check_and_the_commands",),
        "killed",
    ),
    # -- the trace adjustment's weight map, against the closed form at the
    # -- origin and the chained reference -----------------------------
    Mutant(
        "trace-single-k2-l2-dropped", "flatness.py",
        "(k2 == l1, (k1, l2)), (k2 == l2, (k1, l1))):",
        "(k2 == l1, (k1, l2))):",
        ("tests/test_flatness.py::test_tensor_at_the_origin_is_the_chern_moser_closed_form",
         "tests/test_flatness.py::test_trace_map_matches_the_chained_adjustment"),
        "killed",
    ),
    Mutant(
        "trace-double-sign-flipped", "flatness.py",
        "weights[key(m, l, m, l)] += pair",
        "weights[key(m, l, m, l)] -= pair",
        ("tests/test_flatness.py::test_tensor_at_the_origin_is_the_chern_moser_closed_form",
         "tests/test_flatness.py::test_trace_map_matches_the_chained_adjustment"),
        "killed",
    ),
    # a single trace weighted 1/(n+1) in place of 1/(n+2) is the weight
    # -(n+2) over L = (n+1)(n+2)
    Mutant(
        "trace-weight-one-over-n-plus-one", "flatness.py",
        "weights[key(m, k, m, l)] -= n + 1",
        "weights[key(m, k, m, l)] -= n + 2",
        ("tests/test_flatness.py::test_tensor_at_the_origin_is_the_chern_moser_closed_form",
         "tests/test_flatness.py::test_trace_adjustment_matches_the_scalar_formula",
         "tests/test_flatness.py::test_trace_map_matches_the_chained_adjustment"),
        "killed",
    ),
    # every component has the lowest order of the table, zero entries
    # included: one low zero entry lowers every component
    Mutant(
        "trace-order-over-nonzero-entries", "flatness.py",
        "order = min(series.order for series in raw.values())",
        "order = min((series.order for series in raw.values() if series._grades),\n"
        "                default=min(series.order for series in raw.values()))",
        ("tests/test_flatness.py::test_trace_map_matches_the_chained_adjustment",),
        "killed",
    ),
    # -- zero sources -------------------------------------------------
    Mutant(
        "zero-total-at-g-order", "pde.py",
        "return dict.fromkeys(ks, dy)",
        "return dict.fromkeys(ks, TruncatedSeries.zero(system.context, g.order))",
        ("tests/test_pde.py::test_total_derivative_of_zero_is_the_formulas",),
        "killed",
    ),
    Mutant(
        "zero-jet-rows-one-long", "flatness.py",
        "system.component(a, b).order - 2)",
        "system.component(a, b).order - 1)",
        ("tests/test_flatness.py::test_jet_table_of_zero_components_is_the_formulas",),
        "killed",
    ),
    # -- kernels on the packed storage -------------------------------
    Mutant(
        "product-limit-one-short", "series.py",
        "room = limit - degree_l",
        "room = limit - 1 - degree_l",
        ("tests/test_series.py::test_product_terms_match_the_scalar_loop",
         "tests/test_series.py::test_fused_products_match_the_sum_of_single_products",
         "tests/test_series_reference.py::test_operations_match_the_reference_series"),
        "killed",
    ),
    Mutant(
        "fused-multiplier-dropped", "series.py",
        "m = sign * (d // (dl * dr))",
        "m = sign",
        ("tests/test_series.py::test_fused_products_match_the_sum_of_single_products",),
        "killed",
    ),
    Mutant(
        "compose-output-cut-one-long", "series.py",
        "                if degree > cut:\n",
        "                if degree > cut + 1:\n",
        ("tests/test_series.py::test_compose_cuts_each_output_at_its_own_order",),
        "killed",
    ),
    Mutant(
        "compose-offset-cut-unshifted", "series.py",
        "cut = orders[j] - shift",
        "cut = orders[j]",
        ("tests/test_series.py::test_compose_with_offsets_matches_naive_composition",),
        "killed",
    ),
    Mutant(
        "add-numerators-unscaled", "series.py",
        "m = c * (d // den)",
        "m = c",
        ("tests/test_series.py::test_add_into_with_a_factor_matches_the_scalar_loop",),
        "killed",
    ),
    Mutant(
        "combination-limit-one-long", "series.py",
        "if degree > limit:",
        "if degree > limit + 1:",
        ("tests/test_series_reference.py::"
         "test_weighted_sums_over_unequal_denominators_match_the_reference",),
        "killed",
    ),
    Mutant(
        "canonical-form-dropped", "series.py",
        "            d = gcd(d, a, b)\n",
        "            d = 1\n",
        ("tests/test_series_reference.py::test_operations_match_the_reference_series",),
        "killed",
    ),
    Mutant(
        "field-guard-bit-dropped", "series.py",
        "_FIELD = _MAX_ORDER.bit_length() + 1",
        "_FIELD = _MAX_ORDER.bit_length()",
        ("tests/test_series.py::test_sum_of_two_keys_within_the_budget_carries_into_no_field",),
        "killed",
    ),
    Mutant(
        "laplace-limit-one-short", "matrices.py",
        "_products(products, self.order)",
        "_products(products, self.order - 1)",
        ("tests/test_matrices.py::test_expansion_matches_the_permutation_sum",),
        "killed",
    ),
    Mutant(
        "inverse-jacobian-one-short", "implicit.py",
        "c._den, c._grades, low)",
        "c._den, c._grades, low - 1)",
        ("tests/test_implicit.py",),
        "killed",
    ),
    Mutant(
        "jacobian-table-cut-one-short", "implicit.py",
        "entries = [(key, c.truncate(low)) for key, c in cofactor.items()]",
        "entries = [(key, c.truncate(max(low - 1, 0))) for key, c in cofactor.items()]",
        ("tests/test_implicit.py",
         "tests/test_pde.py::test_elimination_solves_to_the_kept_order_only"),
        "killed",
    ),
    Mutant(
        "adjugate-untransposed", "implicit.py",
        "inverse[j].append((i, _product(",
        "inverse[i].append((j, _product(",
        ("tests/test_implicit.py",
         "tests/test_pde.py::test_elimination_solves_to_the_kept_order_only"),
        "killed",
    ),
    Mutant(
        "target-residual-order-one-short", "implicit.py",
        "TruncatedSeries.variable(out_ctx, top, t)",
        "TruncatedSeries.variable(out_ctx, top - 1, t)",
        ("tests/test_implicit.py::test_round_trip_random_instances",),
        "killed",
    ),
    Mutant(
        "box-cube-cut-one-short", "pde.py",
        "box.truncate(box.order - 1)",
        "box.truncate(box.order - 2)",
        ("tests/test_pde.py::test_jet_transfer_against_the_uncut_cube",),
        "killed",
    ),
    Mutant(
        "transfer-order-one-long", "matrices.py",
        "order = min(self.delta.order - 1, t.order - 2)",
        "order = min(self.delta.order - 1, t.order - 2) + 1",
        ("tests/test_flatness.py::test_transfer_of_a_vanishing_delta_is_zero_at_the_sum_order",
         "tests/test_flatness.py::test_transfer_of_a_column_without_unit_minors_is_zero_at_the_sum_order",
         "tests/test_flatness.py::test_transfer_matches_replaced_column_minors"),
        "killed",
    ),
    Mutant(
        "transfer-parameter-free-zero-below-delta", "matrices.py",
        "min(self.delta.order, t.order - 2)",
        "min(self.delta.order - 1, t.order - 2)",
        ("tests/test_flatness.py::test_transfer_matches_replaced_column_minors",),
        "killed",
    ),
    Mutant(
        "transfer-correction-l1-l2-swapped", "matrices.py",
        "(-1, self._delta_fields[l1], pushed)",
        "(-1, self._delta_fields[l2], self._apply(l1, first, order))",
        ("tests/test_flatness.py::test_transfer_matches_replaced_column_minors",),
        "killed",
    ),
    # -- the parser's coefficient budget on scalars -------------------
    Mutant(
        "parse-scalar-budget-skipped", "expressions.py",
        "bits = _bits(value) if value.__class__ is GaussianRational else value._bits()",
        "bits = 0 if value.__class__ is GaussianRational else value._bits()",
        ("tests/test_expressions.py::test_parity_table[2^1048576]",),
        "killed",
    ),
    # -- zero operands ------------------------------------------------
    Mutant(
        "mul-empty-at-max-order", "series.py",
        "            return TruncatedSeries._valid(self.context, order, 1, {})\n",
        "            return TruncatedSeries._valid(self.context, max(self.order, other.order), 1, {})\n",
        ("tests/test_series.py::test_ring_operations_match_dict_arithmetic",),
        "killed",
    ),
    Mutant(
        "add-empty-at-unequal-order", "series.py",
        "return a if a.order <= b.order else a.truncate(b.order)",
        "return a",
        ("tests/test_series.py::test_ring_operations_match_dict_arithmetic",),
        "killed",
    ),
    # a zero operand is left out of a kernel's work, and its output keeps
    # the order the kernel would have given it
    Mutant(
        "compose-zero-output-at-its-own-order", "series.py",
        "TruncatedSeries._valid(target_context, order,\n",
        "TruncatedSeries._valid(target_context, order if acc else s.order,\n",
        ("tests/test_series.py::test_compose_gives_each_zero_member_the_zero_of_its_output_order",),
        "killed",
    ),
    Mutant(
        "pulled-back-zero-at-the-jet-order", "flatness.py",
        "table = dict.fromkeys(jets, TruncatedSeries.zero(delta.context, order))",
        "table = {key: TruncatedSeries.zero(delta.context, jet.order) for key, jet in jets.items()}",
        ("tests/test_flatness.py::test_pull_back_gives_each_zero_jet_the_order_of_its_composition",),
        "killed",
    ),
    Mutant(
        "transfer-zero-table-one-long", "matrices.py",
        "min(self.delta.order, t.order - 2)",
        "min(self.delta.order, t.order - 1)",
        ("tests/test_flatness.py::test_transfer_of_a_zero_t_forms_no_partial",),
        "killed",
    ),
    # -- one-pass parsing, closing and scaling ------------------------
    Mutant(
        "parse-monomial-kept-above-order", "expressions.py",
        "if degree > self.order or not coefficient:",
        "if not coefficient:",
        ("tests/test_expressions.py::test_parity_table[z1^3*z2^4 + z1]",
         "tests/test_expressions.py::test_polynomial_text_parity"),
        "killed",
    ),
    Mutant(
        "parse-sum-past-the-budget-unmeasured", "expressions.py",
        "value, bits = _budgeted(self.closed(operands), position)",
        "value = self.closed(operands)",
        ("tests/test_expressions.py::test_parity_table[2^1048575*z1 + 2^1048575*z1]",),
        "killed",
    ),
    Mutant(
        "parse-product-past-the-budget-unmeasured", "expressions.py",
        "if value.__class__ is TruncatedSeries or bits > _MAX_COEFFICIENT_BITS:",
        "if value.__class__ is TruncatedSeries:",
        ("tests/test_expressions.py::test_parity_table[2^1048575*2*z1]",),
        "killed",
    ),
    # a 1 x 1 minor is its entry cut to the matrix order
    Mutant(
        "minor-one-by-one-uncut", "matrices.py",
        "value = memo[key] = _cut(entry._den, entry._grades, self.order)",
        "value = memo[key] = (entry._den, entry._grades)",
        ("tests/test_matrices.py::test_expansion_matches_the_permutation_sum",),
        "killed",
    ),
]


def _copy(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copytree(ROOT / "demos", dest / "demos", ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)


def _run_tests(dest: Path, tests) -> int:
    """pytest's exit status on ``tests`` in the copy: 0 passed, 1 failed.

    Hypothesis draws from a pinned seed, so a kill that rests on a random
    draw is the same in every run of the gate."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    done = subprocess.run(command, cwd=dest, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def _outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        path = dest / "src" / "pseudosphere" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        status = _run_tests(dest, mutant.tests)
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    start = time.perf_counter()
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        status = _run_tests(Path(tmp), tests)
    if status:
        print(f"baseline: the unmutated tests fail (pytest exit {status})")
        return 1

    bad = 0
    for mutant in MUTANTS:
        outcome = _outcome(mutant)
        expected = "killed" if mutant.expect == "killed" else "survived"
        ok = outcome == expected
        bad += not ok
        label = "ok " if ok else "BAD"
        note = "" if mutant.expect == "killed" else f"  [{mutant.expect}]"
        print(f"{label} {mutant.name}: {outcome}{note}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants as expected in {elapsed:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
