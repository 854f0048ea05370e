"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, load_tensor, main
from repro.tensor import random_tensor, write_tns


class TestLoadTensor:
    def test_table1_name(self):
        t = load_tensor("uber", nnz=500, seed=0)
        assert t.ndim == 4

    def test_file_path(self, tmp_path):
        t = random_tensor((5, 5, 5), nnz=20, seed=0)
        path = str(tmp_path / "x.tns")
        write_tns(t, path)
        loaded = load_tensor(path, nnz=0, seed=0)
        assert loaded.nnz == t.nnz

    def test_unknown_raises(self):
        with pytest.raises(SystemExit):
            load_tensor("no-such-tensor", nnz=10, seed=0)


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        for cmd in ("info", "plan", "decompose", "compare"):
            args = parser.parse_args([cmd, "uber"])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_choices(self):
        args = build_parser().parse_args(
            ["decompose", "uber", "--engine", "stef2"]
        )
        assert args.engine == "stef2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "uber", "--engine", "x"])

    def test_backend_is_engine_alias(self):
        args = build_parser().parse_args(
            ["decompose", "uber", "--backend", "stef2"]
        )
        assert args.engine == "stef2"

    def test_engine_help_renders_capabilities(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "--help"])
        text = capsys.readouterr().out.replace("\n", " ")
        assert "memoize" in text and "serial/threads/processes" in text


class TestCommands:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_info(self):
        code, text = self._run(["info", "uber", "--nnz", "800"])
        assert code == 0
        assert "CSF" in text and "HiCOO" in text and "ALTO" in text

    def test_plan(self):
        code, text = self._run(["plan", "uber", "--nnz", "800", "--rank", "8"])
        assert code == 0
        assert "<== chosen" in text
        assert text.count("order=") == 8  # 2 orders x 4 plans for 4-D

    def test_decompose(self):
        code, text = self._run(
            ["decompose", "nips", "--nnz", "600", "--rank", "4",
             "--iters", "2", "--threads", "2"]
        )
        assert code == 0
        assert "final fit" in text

    def test_decompose_every_engine(self):
        from repro.baselines import ALL_BACKENDS

        for engine in ALL_BACKENDS:
            code, text = self._run(
                ["decompose", "uber", "--nnz", "400", "--rank", "3",
                 "--iters", "1", "--engine", engine, "--threads", "2"]
            )
            assert code == 0, engine

    def test_compare(self):
        code, text = self._run(
            ["compare", "uber", "--nnz", "600", "--rank", "8",
             "--methods", "stef", "splatt-all", "--threads", "4"]
        )
        assert code == 0
        assert "simulated channel" in text and "wall channel" in text

    def test_compare_adds_baseline(self):
        code, text = self._run(
            ["compare", "uber", "--nnz", "500", "--rank", "4",
             "--methods", "stef", "--threads", "2"]
        )
        assert code == 0
        assert "splatt-all" in text

    def test_decompose_from_file(self, tmp_path):
        t = random_tensor((8, 7, 6), nnz=100, seed=1)
        path = str(tmp_path / "t.tns")
        write_tns(t, path)
        code, text = self._run(
            ["decompose", path, "--rank", "3", "--iters", "2"]
        )
        assert code == 0
        assert "final fit" in text
