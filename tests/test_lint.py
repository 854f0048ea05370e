"""Tests for :mod:`repro.lint` — the kernel-invariant static analyzer.

Covers the framework (registry, suppressions, reporters, exit codes),
each per-file rule against a dedicated fixture, the clean-tree guarantee
on the shipped ``src/`` tree, the ``python -m repro.lint`` command line
(the one entry point: ``repro`` has no ``lint`` subcommand), and
injections into a scratch copy of the real mode-0 task: a ``global``
declaration, a module-attribute store and a module-array store must each
be caught.
"""

import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    FileContext,
    all_rules,
    format_json,
    format_text,
    get_rule,
    main as lint_main,
    run_lint,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULE_IDS = {
    "process-task-safety",
    "counter-category",
    "hot-path",
    "dtype-discipline",
}


def kernel_file(tmp_path, source, name="scratch.py"):
    """Write ``source`` under a kernel-marked fixture path."""
    scoped = tmp_path / "lint_fixtures" / "ops"
    scoped.mkdir(parents=True, exist_ok=True)
    mod = scoped / name
    mod.write_text(textwrap.dedent(source))
    return mod


class TestFramework:
    def test_all_four_rule_families_registered(self):
        assert {r.id for r in all_rules()} >= RULE_IDS

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("no-such-rule")

    def test_rules_carry_paper_refs(self):
        for rule in all_rules():
            assert rule.description
            assert rule.paper_ref

    def test_finding_format_is_stable(self):
        report = run_lint([str(FIXTURES / "counter_bad.py")])
        line = report.findings[0].format()
        assert re.match(r"^.*counter_bad\.py:\d+:\d+: \[counter-category\] ", line)

    def test_syntax_error_exits_2(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        report = run_lint([str(bad)])
        assert report.exit_code == EXIT_ERROR
        assert report.errors and "broken.py" in report.errors[0].path

    def test_missing_path_exits_2(self):
        report = run_lint([str(REPO / "no" / "such" / "dir")])
        assert report.exit_code == EXIT_ERROR

    def test_reporters_agree_with_exit_code(self):
        report = run_lint([str(FIXTURES / "counter_bad.py")])
        assert report.exit_code == EXIT_FINDINGS
        assert "finding(s)" in format_text(report)
        payload = json.loads(format_json(report))
        assert payload["exit_code"] == EXIT_FINDINGS
        assert {f["rule"] for f in payload["findings"]} == {"counter-category"}


class TestRuleFixtures:
    """Each fixture file violates exactly one rule family."""

    CASES = [
        ("process_task_bad.py", "process-task-safety", 11),
        ("process_task_imported.py", "process-task-safety", 1),
        ("counter_bad.py", "counter-category", 2),
        ("ops/hot_path_bad.py", "hot-path", 4),
        ("ops/dtype_bad.py", "dtype-discipline", 2),
    ]

    @pytest.mark.parametrize("fixture,rule_id,count", CASES)
    def test_fixture_trips_exactly_its_rule(self, fixture, rule_id, count):
        report = run_lint([str(FIXTURES / fixture)])
        assert report.exit_code == EXIT_FINDINGS
        assert {f.rule for f in report.findings} == {rule_id}
        assert len(report.findings) == count

    @pytest.mark.parametrize("fixture,rule_id,count", CASES)
    def test_select_narrows_to_one_rule(self, fixture, rule_id, count):
        report = run_lint([str(FIXTURES / fixture)], select=[rule_id])
        assert len(report.findings) == count
        other = (RULE_IDS - {rule_id}).pop()
        report = run_lint([str(FIXTURES / fixture)], select=[other])
        assert report.exit_code == EXIT_CLEAN


class TestSuppressions:
    def test_shipped_suppressed_fixture_is_clean(self):
        report = run_lint([str(FIXTURES / "suppressed_ok.py")])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 1

    def test_line_suppression_round_trip(self, tmp_path):
        src = textwrap.dedent(
            """\
            def account(counter):
                counter.read(8.0, "fibres")
                return counter
            """
        )
        mod = tmp_path / "mod.py"
        mod.write_text(src)
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_FINDINGS
        line = report.findings[0].line

        lines = src.splitlines()
        lines[line - 1] += "  # lint: disable=counter-category"
        mod.write_text("\n".join(lines) + "\n")
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 1

    def test_file_level_suppression(self, tmp_path):
        scoped = tmp_path / "lint_fixtures" / "ops"
        scoped.mkdir(parents=True)
        mod = scoped / "mod.py"
        mod.write_text(
            "import numpy as np\n"
            "def f(out, idx, rows):\n"
            "    np.add.at(out, idx, rows)\n"
        )
        assert run_lint([str(mod)]).exit_code == EXIT_FINDINGS
        mod.write_text("# lint: disable-file=hot-path\n" + mod.read_text())
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 1

    def test_disable_all(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "# lint: disable-file=all\n"
            "def account(counter):\n"
            '    counter.read(8.0, "fibres")\n'
        )
        report = run_lint([str(mod)])
        assert report.exit_code == EXIT_CLEAN
        assert report.suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def account(counter):\n"
            '    counter.read(8.0, "fibres")  # lint: disable=hot-path\n'
        )
        assert run_lint([str(mod)]).exit_code == EXIT_FINDINGS

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


class TestCleanTree:
    def test_shipped_src_tree_is_clean(self):
        report = run_lint([str(REPO / "src")])
        assert report.errors == []
        assert report.findings == [], format_text(report)
        assert report.exit_code == EXIT_CLEAN
        assert report.files_checked > 50

    def test_fixture_dir_is_dirty_by_design(self):
        report = run_lint([str(FIXTURES)])
        assert report.exit_code == EXIT_FINDINGS
        assert {f.rule for f in report.findings} == RULE_IDS


class TestAcceptanceScenario:
    """Inject a violation into a scratch copy of the real engine
    module's mode-0 task body: the analyzer must catch it."""

    def _scratch_copy(self, tmp_path, mutate):
        src = (REPO / "src" / "repro" / "core" / "mttkrp.py").read_text()
        m = re.search(
            r"^def mode0_task\(.*?\n    ctx, th = [^\n]*\n", src, flags=re.M | re.S
        )
        assert m, "mttkrp.py no longer defines mode0_task?"
        injected = src[: m.end()] + "    " + mutate + "\n" + src[m.end() :]
        scratch = tmp_path / "mttkrp_scratch.py"
        scratch.write_text(injected)
        return scratch

    def _task_findings(self, scratch):
        report = run_lint([str(scratch)], select=["process-task-safety"])
        assert report.exit_code == EXIT_FINDINGS
        assert len(report.findings) == 1, report.findings
        return report.findings[0].message

    def test_baseline_engine_module_is_clean(self):
        report = run_lint([str(REPO / "src" / "repro" / "core" / "mttkrp.py")])
        assert report.exit_code == EXIT_CLEAN

    def test_global_in_task_body_is_caught(self, tmp_path):
        scratch = self._scratch_copy(tmp_path, "global _TASK_CALLS")
        message = self._task_findings(scratch)
        assert "mode0_task" in message and "global _TASK_CALLS" in message

    def test_module_attribute_store_in_task_body_is_caught(self, tmp_path):
        scratch = self._scratch_copy(tmp_path, "np.last_task_thread = th")
        message = self._task_findings(scratch)
        assert "mode0_task" in message and "np.last_task_thread" in message

    def test_module_array_store_in_task_body_is_caught(self, tmp_path):
        scratch = self._scratch_copy(tmp_path, "_TASK_SCRATCH[th] = 1.0")
        message = self._task_findings(scratch)
        assert "mode0_task" in message and "_TASK_SCRATCH[th]" in message

    def test_worker_side_operator_cache_is_caught(self, tmp_path):
        scratch = self._scratch_copy(
            tmp_path, '_OPS_CACHE.setdefault(th, ctx["sweeps"])'
        )
        scratch.write_text("_OPS_CACHE = {}\n" + scratch.read_text())
        message = self._task_findings(scratch)
        assert "mode0_task" in message and "_OPS_CACHE.setdefault()" in message


class TestCli:
    def test_module_main_text(self):
        out = io.StringIO()
        code = lint_main([str(FIXTURES / "counter_bad.py")], out)
        assert code == EXIT_FINDINGS
        assert "[counter-category]" in out.getvalue()

    def test_module_main_json(self):
        out = io.StringIO()
        code = lint_main(
            ["--format", "json", str(FIXTURES / "ops" / "dtype_bad.py")], out
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(out.getvalue())
        assert payload["exit_code"] == EXIT_FINDINGS

    def test_module_main_clean_src(self):
        out = io.StringIO()
        assert lint_main([str(REPO / "src")], out) == EXIT_CLEAN
        assert "0 finding(s)" in out.getvalue()

    def test_list_rules(self):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out) == EXIT_CLEAN
        listed = {
            line.split()[0]
            for line in out.getvalue().splitlines()
            if line and not line.startswith(" ")
        }
        assert listed == RULE_IDS

    def test_unknown_select_exits_2(self):
        out = io.StringIO()
        code = lint_main(["--select", "bogus", str(REPO / "src")], out)
        assert code == EXIT_ERROR
        assert "unknown rule" in out.getvalue()

    def test_help_offers_exactly_the_kept_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--help"], io.StringIO())
        assert exc.value.code == EXIT_CLEAN
        help_text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", help_text)) == {
            "--help", "--format", "--select", "--list-rules",
        }
        assert "--format {text,json}" in help_text

    def test_repro_has_no_lint_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", str(REPO / "src")], io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_repro_parser_does_not_import_the_linter(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = (
            "import sys; from repro.cli import build_parser; "
            "build_parser(); print('repro.lint' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestNoFalsePositives:
    """Idioms the shipped kernels rely on must stay clean."""

    def _check(self, source, rule_id, path="mod.py"):
        ctx = FileContext(Path(path), textwrap.dedent(source))
        rule = get_rule(rule_id)
        assert rule.applies_to(ctx) or path == "mod.py"
        return list(rule.check(ctx))

    def test_shard_charges_are_fine(self):
        """A task that charges its own shard and stores only into its
        payload, its locals, views and payload-resolved buffers."""
        findings = self._check(
            """\
            def task(payload):
                shards, rep, th = payload["shards"], payload["rep"], payload["th"]
                shard = shards.shard(th)
                shard.read(4.0, "structure")
                out = rep.view(th, 0, 4)
                out[:] = th
                resolve(payload["buf"])[th : th + 4] += 1.0
                payload["seen"] = th
                local = {}
                local["x"] = th
                return th

            def run(pool, payloads):
                return pool.run_tasks(task, payloads)
            """,
            "process-task-safety",
        )
        assert findings == []

    def test_mutating_calls_on_imports_defs_and_locals_are_fine(self):
        """Only containers the module binds by assignment are shared
        state: ``np.append`` returns a new array, and a name the task
        binds itself is task-private."""
        findings = self._check(
            """\
            import numpy as np
            from collections import deque as queue

            _LOG = []

            def helper():
                return None

            class Registry:
                pass

            def task(payload):
                out = np.append(payload["x"], 1.0)
                queue.append(out)
                helper.update(out)
                Registry.add(out)
                _LOG = []
                _LOG.append(out)
                local = {}
                local.update({1: 2})
                del local[1]
                return out

            def run(pool, payloads):
                return pool.run_tasks(task, payloads)
            """,
            "process-task-safety",
        )
        assert findings == []

    def test_file_read_is_not_a_charge(self):
        findings = self._check(
            """\
            def load(path, counter):
                with open(path) as fh:
                    data = fh.read()
                counter.read(8.0, "structure")
                return data
            """,
            "counter-category",
        )
        assert findings == []

    def test_hot_path_rule_is_path_scoped(self):
        ctx = FileContext(
            Path("/somewhere/repro/analysis/report.py"),
            "import numpy as np\n",
        )
        assert not get_rule("hot-path").applies_to(ctx)
        ctx = FileContext(
            Path("/somewhere/repro/ops/krp.py"), "import numpy as np\n"
        )
        assert get_rule("hot-path").applies_to(ctx)

    def test_concatenate_outside_loop_is_fine(self):
        ctx = FileContext(
            Path("/x/repro/ops/mod.py"),
            "import numpy as np\n"
            "def join(parts):\n"
            "    return np.concatenate(parts)\n",
        )
        assert list(get_rule("hot-path").check(ctx)) == []

    def test_float64_dtype_is_fine(self):
        ctx = FileContext(
            Path("/x/repro/core/mod.py"),
            "import numpy as np\n"
            "def alloc(n):\n"
            "    return np.zeros(n, dtype=np.float64)\n",
        )
        assert list(get_rule("dtype-discipline").check(ctx)) == []
