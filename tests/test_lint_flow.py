"""Tests for :mod:`repro.lint.flow` — the interprocedural analysis.

Covers the flow substrate (CFG dominators, call-graph resolution,
``run_tasks`` dispatch edges), ``flow.traffic-conformance`` against an
uncounted array write injected into a scratch copy of a real kernel
module (exactly one finding with that rule id), suppression edge cases,
the hard-clean shipped tree, and the cross-check that the statically
computed per-kernel charged-category summaries agree with the traffic
deltas observed on traced engine runs.
"""

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    FileContext,
    ProjectContext,
    all_rules,
    run_lint,
)
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.cfg import ENTRY, EXIT, build_cfg

REPO = Path(__file__).resolve().parents[1]

FLOW_RULES = {"flow.traffic-conformance"}


def kernel_file(tmp_path, source, name="scratch.py"):
    """Write ``source`` under a kernel-marked fixture path."""
    scoped = tmp_path / "lint_fixtures" / "ops"
    scoped.mkdir(parents=True, exist_ok=True)
    mod = scoped / name
    mod.write_text(textwrap.dedent(source))
    return mod


def finding_counts(report):
    return Counter((f.rule, f.message) for f in report.findings)


class TestRegistry:
    def test_flow_rules_registered_as_project_scope(self):
        by_id = {r.id: r for r in all_rules()}
        for rid in FLOW_RULES:
            assert rid in by_id
            assert by_id[rid].scope == "project"
            assert by_id[rid].description and by_id[rid].paper_ref

    def test_flow_rules_skipped_without_flag(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            def f(out, idx, rows):
                for p in range(idx.shape[0]):
                    out[idx[p]] += rows[p]
            """,
        )
        report = run_lint([str(mod)])
        assert {f.rule for f in report.findings} & FLOW_RULES == set()
        report = run_lint([str(mod)], flow=True)
        assert {f.rule for f in report.findings} & FLOW_RULES

    def test_selecting_flow_rule_implies_flow(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            def f(out, idx, rows):
                for p in range(idx.shape[0]):
                    out[idx[p]] += rows[p]
            """,
        )
        report = run_lint([str(mod)], select=["flow.traffic-conformance"])
        assert report.exit_code == EXIT_FINDINGS
        assert {f.rule for f in report.findings} == {"flow.traffic-conformance"}


class TestCfg:
    def _cfg(self, source):
        fn = ast.parse(textwrap.dedent(source)).body[0]
        return fn, build_cfg(fn)

    def test_straight_line_dominance(self):
        fn, cfg = self._cfg(
            """\
            def f(c, x):
                a = charge()
                b = x + 1
                return b
            """
        )
        charge_id = cfg.node_of(fn.body[0])
        use_id = cfg.node_of(fn.body[1])
        assert cfg.covered_by(use_id, {charge_id})

    def test_branch_only_charge_does_not_dominate(self):
        fn, cfg = self._cfg(
            """\
            def f(c, x):
                if c:
                    a = charge()
                b = x + 1
                return b
            """
        )
        charge_id = cfg.node_of(fn.body[0].body[0])
        use_id = cfg.node_of(fn.body[1])
        assert not cfg.covered_by(use_id, {charge_id})

    def test_postdominating_charge_covers(self):
        fn, cfg = self._cfg(
            """\
            def f(c, x):
                b = x + 1
                a = charge()
                return b
            """
        )
        use_id = cfg.node_of(fn.body[0])
        charge_id = cfg.node_of(fn.body[1])
        assert cfg.covered_by(use_id, {charge_id})

    def test_early_return_breaks_postdominance(self):
        fn, cfg = self._cfg(
            """\
            def f(c, x):
                b = x + 1
                if c:
                    return None
                a = charge()
                return b
            """
        )
        use_id = cfg.node_of(fn.body[0])
        charge_id = cfg.node_of(fn.body[2])
        assert not cfg.covered_by(use_id, {charge_id})

    def test_entry_dominates_and_exit_postdominates_everything(self):
        fn, cfg = self._cfg(
            """\
            def f(xs):
                for x in xs:
                    y = x
                return None
            """
        )
        dom = cfg.dominators()
        post = cfg.postdominators()
        for nid in cfg.nodes:
            assert ENTRY in dom[nid]
            assert EXIT in post[nid]


class TestCallGraph:
    def _graph(self, files):
        ctxs = [
            FileContext(Path(path), textwrap.dedent(src))
            for path, src in files.items()
        ]
        return CallGraph(ctxs)

    def test_cross_module_name_call(self):
        g = self._graph(
            {
                "/x/repro/moda.py": """\
                    def helper(v):
                        return v
                    """,
                "/x/repro/modb.py": """\
                    from repro.moda import helper

                    def caller(v):
                        return helper(v)
                    """,
            }
        )
        assert "repro.modb.caller" in g.functions
        assert g.callees["repro.modb.caller"] == {"repro.moda.helper"}

    def test_self_method_resolution_in_nested_thread_body(self):
        g = self._graph(
            {
                "/x/repro/eng.py": """\
                    class Engine:
                        def _charge(self, th):
                            return th

                        def run(self, pool):
                            def body(th):
                                self._charge(th)
                                return th
                            return pool.map(body)
                    """,
            }
        )
        # The closure keeps the enclosing class, so self._charge resolves.
        assert g.callees["repro.eng.Engine.run.body"] == {
            "repro.eng.Engine._charge"
        }

    def test_dispatch_edge_for_run_tasks(self):
        g = self._graph(
            {
                "/x/repro/eng.py": """\
                    def task(payload):
                        return payload

                    def done(results):
                        return results

                    class Engine:
                        def run(self, pool, payloads):
                            return pool.run_tasks(task, payloads)

                        def other(self, pool):
                            pool.map(done)
                            return pool.submit(task, wait=done)
                    """,
            }
        )
        sites = [s for s in g.call_sites if s.is_dispatch]
        assert [(s.caller, s.callee) for s in sites] == [
            ("repro.eng.Engine.run", "repro.eng.task")
        ]

    def test_bare_name_in_method_skips_class_scope(self):
        """Class bodies are not enclosing scopes: ``helper(x)`` inside a
        method is the module-level ``helper``, never ``Engine.helper``."""
        g = self._graph(
            {
                "/x/repro/eng.py": """\
                    def helper(x):
                        return x

                    class Engine:
                        def helper(self, x):
                            return x

                        def run(self, x):
                            return helper(x)
                    """,
            }
        )
        assert g.callees["repro.eng.Engine.run"] == {"repro.eng.helper"}


class TestAcceptanceInjections:
    """Inject one violation into a scratch copy of the real
    ``ops/partial.py`` and diff against the pristine copy — exactly one
    new finding with the expected rule id."""

    PARTIAL = (REPO / "src" / "repro" / "ops" / "partial.py").read_text()

    def _diff(self, tmp_path, injected_suffix):
        mod = kernel_file(tmp_path, self.PARTIAL, name="partial.py")
        base = finding_counts(run_lint([str(mod)], flow=True))
        mod.write_text(self.PARTIAL + textwrap.dedent(injected_suffix))
        new = finding_counts(run_lint([str(mod)], flow=True))
        return new - base

    def test_uncounted_write_is_exactly_one_traffic_finding(self, tmp_path):
        diff = self._diff(
            tmp_path,
            """\

            def scratch_kernel(out, idx, rows):
                for p in range(idx.shape[0]):
                    out[idx[p]] += rows[p]
            """,
        )
        assert sum(diff.values()) == 1
        ((rule, message),) = diff
        assert rule == "flow.traffic-conformance"
        assert "scratch_kernel" in message and "uncounted" in message

    def test_charged_write_adds_no_finding(self, tmp_path):
        diff = self._diff(
            tmp_path,
            """\

            def scratch_kernel(out, idx, rows, counter):
                counter.write(float(idx.shape[0]), "output")
                for p in range(idx.shape[0]):
                    out[idx[p]] += rows[p]
            """,
        )
        # The write is accounted: no traffic finding.
        assert not [k for k in diff if k[0] == "flow.traffic-conformance"]

class TestSuppressionEdgeCases:
    def test_two_pragmas_in_one_comment(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            import numpy as np

            def f(out, idx, rows):
                np.add.at(out, idx, rows)  # lint: disable=hot-path # lint: disable-next-line=hot-path
                np.add.at(out, idx, rows)
            """,
        )
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 2

    def test_all_plus_specific_rule_in_one_pragma(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            # lint: disable-file=all,hot-path
            import numpy as np

            def f(out, idx, rows):
                np.add.at(out, idx, rows)
            """,
        )
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 1

    def test_pragma_inside_string_literal_does_not_suppress(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            import numpy as np

            DOC = "# lint: disable-file=all"

            def f(out, idx, rows):
                np.add.at(out, idx, rows)
            """,
        )
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_FINDINGS
        assert report.suppressed == 0

    def test_dotted_flow_rule_next_line_suppression(self, tmp_path):
        mod = kernel_file(
            tmp_path,
            """\
            def f(out, idx, rows):
                for p in range(idx.shape[0]):
                    # lint: disable-next-line=flow.traffic-conformance
                    out[idx[p]] += rows[p]
            """,
        )
        report = run_lint([str(mod)], flow=True)
        assert {f.rule for f in report.findings} & FLOW_RULES == set()
        assert report.suppressed >= 1


class TestShippedTree:
    def test_flow_run_is_hard_clean(self):
        """``python -m repro.lint --flow src/`` must exit clean."""
        report = run_lint([str(REPO / "src")], flow=True)
        assert report.errors == []
        live = "\n".join(f.format() for f in report.findings)
        assert report.findings == [], f"flow findings on shipped tree:\n{live}"
        assert report.exit_code == EXIT_CLEAN

class TestChargedCategorySummaries:
    """The static per-kernel charged-category summaries must agree with
    the categories observed in traced engine runs (trace span deltas)."""

    ENGINE_MODULES = {
        "stef": "repro.core.mttkrp",
        "taco": "repro.baselines.taco",
        "dimtree": "repro.baselines.dimtree",
    }

    @pytest.fixture(scope="class")
    def module_categories(self):
        files = sorted((REPO / "src").rglob("*.py"))
        ctxs = [FileContext(p, p.read_text()) for p in files]
        return ProjectContext(ctxs).analysis.module_categories()

    @pytest.mark.parametrize("method", sorted(ENGINE_MODULES))
    def test_observed_categories_subset_of_summary(self, method, module_categories):
        from repro.cpd import cp_als
        from repro.engines import create_engine
        from repro.parallel import MACHINES, TrafficCounter
        from repro.tensor import random_tensor
        from repro.trace import Tracer

        machine = MACHINES["intel-clx-18"]
        tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
        tracer = Tracer()
        counter = TrafficCounter(cache_elements=machine.cache_elements)
        with create_engine(
            method, tensor, 4, machine=machine, num_threads=2,
            exec_backend="serial", counter=counter, tracer=tracer,
        ) as engine:
            cp_als(
                tensor, 4, engine=engine, max_iters=1,
                compute_fit=False, seed=0, tracer=tracer,
            )
        observed = set()
        for rec in tracer.kernel_spans():
            observed |= {
                key.split(":", 1)[1] for key in rec.traffic if ":" in key
            }
        predicted = module_categories[self.ENGINE_MODULES[method]]
        assert observed, "traced run recorded no kernel spans"
        assert observed <= predicted, (
            f"{method}: observed categories {sorted(observed - predicted)} "
            "missing from the static summary"
        )
