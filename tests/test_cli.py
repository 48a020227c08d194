"""Study driver, CSV/SVG output, and flag handling."""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasitrace
import quasitrace.cli as cli
from quasitrace.cli import CSV_COLUMNS, StudyConfig, StudyResult, main, report_csv, run_study
from quasitrace.postprocess_errors import ErrorReport

from conftest import shifted_box

# SHA-256 of the CSV text of the session studies (n0 = 8, four levels,
# neumann postprocessing).  A refactor that keeps the numerics must keep
# these bytes; a deliberate change of the numerics records new digests.
STUDY_CSV_SHA256 = {
    "rt0": "554d5fbe8d2e74f39522c622bf85aef4daeb87ffea78cb115824cef7e1661154",
    "bdm1": "f06a44ca00c0ba66c292a9c9bc0ba8fbe058e3cfb5bf4a637b4528f07f2d9be6",
}


class TestConfigValidation:
    def test_rejects_small_n0(self):
        with pytest.raises(ValueError):
            StudyConfig(n0=2)

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            StudyConfig(levels=0)

    def test_rejects_box_without_margin(self):
        with pytest.raises(ValueError):
            StudyConfig(box=((-1.2, 1.2), (-2.0, 2.0), (-2.0, 2.0)))

    def test_rejects_unknown_space(self):
        with pytest.raises(ValueError):
            StudyConfig(space="rt1")

    @pytest.mark.parametrize("name", ["n0", "levels"])
    def test_rejects_a_float_count(self, name):
        # run_study would fail later with a TypeError from range or lattice sizes
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            StudyConfig(**{name: 8.0})

    def test_accepts_numpy_integer_counts(self):
        config = StudyConfig(n0=np.int64(8), levels=np.int32(2))
        assert (config.n0, config.levels) == (8, 2)

    @pytest.mark.parametrize("box", [(-2.0, 2.0, -2.0, 2.0), ((-2.0, 2.0),) * 4])
    def test_rejects_a_box_without_six_bounds(self, box):
        with pytest.raises(ValueError, match="^box needs six bounds$"):
            StudyConfig(box=box)

    def test_an_array_box_compares_and_hashes(self):
        # the frozen config keeps the six bounds as floats, however they were given
        box = shifted_box((0.013, 0.007, 0.021))
        flat = tuple(float(bound) for bound in box.ravel())
        config = StudyConfig(box=box)
        assert config.box == flat
        assert config == StudyConfig(box=flat)
        assert hash(config) == hash(StudyConfig(box=flat))

    def test_rejects_mesh_export_without_output_dir(self):
        # run_study would write no mesh and say nothing
        with pytest.raises(ValueError, match="^export_mesh needs an output_dir$"):
            StudyConfig(export_mesh=True)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("box", (-2.0, 2.0, -2.0, 2.0, -2.0, float("nan"))),  # the flat six the command line passes
            ("box", ((-2.0, float("inf")), (-2.0, 2.0), (-2.0, 2.0))),
            ("box", ((float("nan"), 2.0), (-2.0, 2.0), (-2.0, 2.0))),
        ],
    )
    def test_rejects_non_finite_input(self, name, value):
        # NaN fails every margin comparison, so the margin check alone lets it through
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            StudyConfig(**{name: value})


class TestRunStudy:
    def test_row_count_and_schema(self, tmp_path):
        result = run_study(StudyConfig(n0=4, levels=2, output_dir=str(tmp_path)))
        text = (tmp_path / "study.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[9:] == ["", "", "", ""]  # no rates on the first row
        second = lines[2].split(",")
        assert all(cell != "" for cell in second)
        assert (tmp_path / "study.svg").read_text().startswith("<svg")

    def test_study_csv_bytes_pinned(self, study_rt0, study_bdm1):
        for kind, study in (("rt0", study_rt0), ("bdm1", study_bdm1)):
            digest = hashlib.sha256(report_csv(study.report).encode()).hexdigest()
            assert digest == STUDY_CSV_SHA256[kind]

    def test_byte_identical_reruns(self, tmp_path):
        config_a = StudyConfig(n0=4, levels=1, output_dir=str(tmp_path / "a"))
        config_b = StudyConfig(n0=4, levels=1, output_dir=str(tmp_path / "b"))
        run_study(config_a)
        run_study(config_b)
        assert (tmp_path / "a" / "study.csv").read_bytes() == (tmp_path / "b" / "study.csv").read_bytes()

    def test_mesh_export(self, tmp_path):
        run_study(StudyConfig(n0=4, levels=1, output_dir=str(tmp_path), export_mesh=True))
        assert (tmp_path / "mesh_level0.off").exists()

    def test_check_mesh_only_skips_solve(self, tmp_path):
        result = run_study(StudyConfig(n0=4, levels=1, output_dir=str(tmp_path), check_mesh_only=True))
        assert result.report.records[0].errors is None
        assert not (tmp_path / "study.csv").exists()

    def test_check_mesh_only_keeps_the_mean_correction(self):
        """Both modes sample the load, so both records carry its mean correction."""
        corrections = [
            run_study(StudyConfig(n0=4, levels=1, check_mesh_only=check_mesh_only)).report.records[0].rhs_mean_correction
            for check_mesh_only in (True, False)
        ]
        assert corrections[0] is not None
        assert corrections[0] == corrections[1]

    @pytest.mark.parametrize("check_mesh_only", [True, False])
    def test_rejects_a_mesh_outside_the_tube(self, check_mesh_only):
        """A wide box on a coarse lattice leaves facet points beyond the tube the
        frames admit; the error names the level, the lattice and a remedy."""
        config = StudyConfig(
            n0=4,
            levels=1,
            box=shifted_box((-0.18, -0.37, -0.39), box=((-4.55, 4.55),) * 3),
            check_mesh_only=check_mesh_only,
        )
        message = (
            "level 0 (n = 4, lattice spacing 2.27): point outside the tubular neighborhood of the surface; "
            "use a larger n0 or a smaller box"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_study(config)

    @pytest.mark.parametrize("offset", np.random.default_rng(19).uniform(-0.4, 0.4, size=(6, 3)).tolist())
    def test_both_modes_reject_the_same_coarse_meshes(self, offset):
        """The load's frames are the level's only frame pass, and both modes
        sample the load: a coarse lattice fails alike with and without
        ``check_mesh_only``."""
        messages = []
        for check_mesh_only in (True, False):
            config = StudyConfig(n0=4, levels=1, box=shifted_box(offset), check_mesh_only=check_mesh_only)
            with pytest.raises(ValueError, match=r"^level 0 \(n = 4, lattice spacing 1\): ") as caught:
                run_study(config)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_shifted_box_completes(self):
        result = run_study(StudyConfig(n0=4, levels=1, box=shifted_box((0.013, 0.007, 0.021))))
        assert result.report.records[0].errors.err_u > 0.0
        # the bytes of this lattice; moving how a box places the lattice moves them
        digest = hashlib.sha256(report_csv(result.report).encode()).hexdigest()
        assert digest == "5afc8d1bfb54b46c20ce56aafad522c68a8f85f4aeaaea65fc31fc4cf32db794"

    def test_postprocess_variant_selection(self):
        neumann = run_study(StudyConfig(n0=4, levels=1, postprocess="neumann"))
        gradient = run_study(StudyConfig(n0=4, levels=1, postprocess="gradient"))
        both = run_study(StudyConfig(n0=4, levels=1, postprocess="both"))
        e_n = neumann.report.records[0].errors
        e_g = gradient.report.records[0].errors
        e_b = both.report.records[0].errors
        assert e_n.err_post_alt is None and e_g.err_post_alt is None
        # 'both' reports the flux-driven variant in err_post, the other one alongside
        assert e_b.err_post == e_n.err_post
        assert e_b.err_post_alt == e_g.err_post
        assert e_g.err_post != e_n.err_post


@pytest.fixture
def recorded_configs(monkeypatch):
    """The configs ``main`` hands to ``run_study``, which is replaced so that no study runs."""
    configs = []

    def record(config):
        configs.append(config)
        return StudyResult(report=ErrorReport(space=config.space), seconds=0.0, files=[])

    monkeypatch.setattr(cli, "run_study", record)
    return configs


class TestMain:
    def test_defaults_come_from_study_config(self, recorded_configs, capsys):
        assert main([]) == 0
        assert recorded_configs == [StudyConfig(output_dir=".")]

    def test_readme_command_lines_build_a_config(self, recorded_configs, capsys):
        """Each ``quasitrace`` line of the README's command-line block parses and
        builds a ``StudyConfig`` as ``main`` builds one, so no removed flag lingers there."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("quasitrace ")]
        assert lines
        for line in lines:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert len(recorded_configs) == len(lines)

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--space", "nonsense"])
        assert exc.value.code == 2

    def test_invalid_config_exits_1(self, capsys):
        assert main(["--n0", "2", "--levels", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_box_exits_1(self, capsys):
        assert main(["--n0", "4", "--levels", "1", "--box", "nan", "2", "-2", "2", "-2", "2", "--check-mesh-only"]) == 1
        assert capsys.readouterr().err == "error: box must be finite\n"

    def test_unusable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--n0", "4", "--levels", "1", "--out", str(blocker / "sub")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point_runs_clean(self):
        """``python -m quasitrace.cli`` finds no half-imported copy of itself: the package root does not import it."""
        src = str(Path(quasitrace.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quasitrace.cli", "--help"],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")

    def test_small_study_runs(self, tmp_path, capsys):
        code = main(["--n0", "4", "--levels", "1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "level 0" in out and "err_post" in out
