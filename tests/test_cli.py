"""Tests for the command-line interface."""

import io
import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, load_tensor, main
from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES
from repro.serve import start_in_thread, wait_for_socket
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

    def test_submit_save_is_bit_identical_and_jobs_lists_it(self, tmp_path):
        """`repro submit --save` writes the served record's factors, equal
        bit for bit to a direct run; `repro jobs` then lists the finished
        job's iterations and seconds from its summary."""
        sock = str(tmp_path / "s.sock")
        spool = str(tmp_path / "spool")
        saved = str(tmp_path / "factors.npz")
        handle = start_in_thread(sock, spool, workers=1)
        wait_for_socket(sock)
        try:
            code, text = self._run(
                ["submit", "uber", "--nnz", "300", "--rank", "4",
                 "--iters", "3", "--tol", "0", "--socket", sock,
                 "--save", saved]
            )
            assert code == 0, text
            job_id = text.split(":")[0]
            code, listing = self._run(["jobs", "--socket", sock])
            assert code == 0, listing
        finally:
            handle.stop()

        tensor = load_tensor("uber", nnz=300, seed=0)
        with create_engine("stef", tensor, 4,
                           machine=MACHINES["intel-clx-18"],
                           exec_backend="serial") as engine:
            direct = cp_als(tensor, 4, engine=engine, max_iters=3, tol=0.0,
                            init="random", seed=0)
        with np.load(saved) as data:
            assert np.array_equal(data["weights"], direct.model.weights)
            for mode, factor in enumerate(direct.model.factors):
                assert np.array_equal(data[f"factor_{mode}"], factor)

        with open(os.path.join(spool, "jobs", f"{job_id}.json")) as fh:
            seconds = json.load(fh)["result"]["seconds"]
        row = next(line.split() for line in listing.splitlines()
                   if line.startswith(job_id))
        assert row == [job_id, "done", "stef", "serial", "miss", "3",
                       f"{seconds:.3f}"]

    def test_submit_refuses_a_bad_spec_locally(self, tmp_path):
        code, text = self._run(
            ["submit", "uber", "--nnz", "300", "--rank", "0",
             "--socket", str(tmp_path / "no-daemon.sock")]
        )
        assert code == 1
        assert text == ("refused: rank must be an integer >= 1, got 0 "
                        "(bad-request)\n")
