import time
from fractions import Fraction

import numpy as np
import pytest

from vemaxwell import cli


class TestRunConfig:
    def test_tau_must_divide(self):
        with pytest.raises(cli.ConfigError, match="does not divide"):
            cli.RunConfig("cube:2", 1, Fraction(3, 10), T=1.0)

    def test_bad_case(self):
        with pytest.raises(cli.ConfigError, match="case"):
            cli.RunConfig("cube:2", 9, Fraction(1, 2))

    def test_bad_eta(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig("cube:2", 1, Fraction(1, 2), eta_edge=-1.0)


class TestRunSingle:
    def test_smoke_cube2(self, tmp_path):
        t0 = time.perf_counter()
        out = tmp_path / "row.csv"
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2), out=str(out))
        rep = cli.run_single(cfg)
        assert time.perf_counter() - t0 < 5.0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("cube8,")
        assert rep.label == "cube8"
        assert rep.err_E > 0

    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            cfg = cli.RunConfig("cube:2", 2, Fraction(1, 4),
                                out=str(tmp_path / name))
            cli.run_single(cfg)
            outs.append((tmp_path / name).read_bytes())
        # identical configs produce identical bytes except the wall-time field
        def strip_wall(b):
            return b",".join(b.split(b",")[:-1])
        assert strip_wall(outs[0]) == strip_wall(outs[1])

    def test_monitors_written(self, tmp_path):
        mon = tmp_path / "mon.csv"
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2), monitors=str(mon))
        cli.run_single(cfg)
        lines = mon.read_text().strip().split("\n")
        assert lines[0] == "step,t,energy,divB,cg_iters,residual"
        assert len(lines) == 4

    def test_csv_div_b_is_last_monitor(self, tmp_path):
        out, mon = tmp_path / "row.csv", tmp_path / "mon.csv"
        cfg = cli.RunConfig("cube:2", 2, Fraction(1, 4), out=str(out),
                            monitors=str(mon))
        cli.run_single(cfg)
        header, row = out.read_text().strip().split("\n")
        div_b = row.split(",")[header.split(",").index("div_B")]
        mon_header, *rows = mon.read_text().strip().split("\n")
        last = rows[-1].split(",")[mon_header.split(",").index("divB")]
        assert div_b == last

    def test_mesh_file_source(self, tmp_path, voro8):
        from vemaxwell import save_mesh
        path = tmp_path / "v.json"
        save_mesh(voro8, path)
        cfg = cli.RunConfig(str(path), 1, Fraction(1, 2))
        rep = cli.run_single(cfg)
        assert rep.label == "voro8"


class TestRunConvergence:
    def test_three_levels_mechanics(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = cli.RunConfig("cube:1", 2, Fraction(1, 4), out=str(out))
        report = cli.run_convergence(cfg, 3)
        assert [r.label for r in report.rows] == ["cube1", "cube8", "cube64"]
        assert [r.tau for r in report.rows] == [0.25, 0.125, 0.0625]
        # rates recomputed by hand from the emitted rows
        for i, (a, b) in enumerate(zip(report.rows, report.rows[1:])):
            expected = np.log(a.err_E / b.err_E) / np.log(a.h / b.h)
            assert report.rates_E[i] == pytest.approx(expected, rel=1e-12)
        text = report.table(1.0)
        assert "rate level" in text and "not reproducible" in text
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("#") and lines[1] == cli.CSV_HEADER
        assert len(lines) == 5

    def test_full_grid_mode(self, tmp_path):
        out = tmp_path / "grid.csv"
        cfg = cli.RunConfig("cube:1", 1, Fraction(1, 2), out=str(out), grid=True)
        report = cli.run_convergence(cfg, 2)
        assert report.grid is not None
        assert len(report.grid) == 2 and len(report.grid[0]) == 2
        # diagonal entries coincide with the default-mode rows
        assert report.rows[0] is report.grid[0][0]
        assert report.rows[1] is report.grid[1][1]
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6       # note + header + 4 runs
        text = report.table(1.0)
        assert text.count("/") >= 4  # every cell filled

    def test_identical_levels_rejected(self, tmp_path, voro8):
        from vemaxwell import save_mesh
        path = tmp_path / "v.json"
        save_mesh(voro8, path)
        cfg = cli.RunConfig(str(path), 1, Fraction(1, 2))
        with pytest.raises(cli.ConfigError, match="not refined"):
            cli.run_convergence(cfg, 2, mesh_sources=[str(path), str(path)])

    def test_needs_two_levels(self):
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2))
        with pytest.raises(cli.ConfigError, match="2 levels"):
            cli.run_convergence(cfg, 1)


class TestMain:
    def test_exit_zero(self, capsys):
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(cli.CSV_HEADER)

    def test_config_error_exit_two(self, capsys):
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "0.3"])
        assert code == 2
        code = cli.main(["--generate", "cube:2", "--case", "9", "--tau", "1/2"])
        assert code == 2
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "bogus"])
        assert code == 2

    def test_missing_mesh_exit_three(self, capsys):
        code = cli.main(["--mesh", "/nonexistent/mesh.json", "--case", "1",
                         "--tau", "1/2"])
        assert code == 3

    def test_tau_decimal_accepted(self, capsys):
        code = cli.main(["--generate", "cube:1", "--case", "1", "--tau", "0.5"])
        assert code == 0
