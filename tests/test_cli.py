"""File format, commands, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gweave
from gweave.cli import (
    document_to_gframe,
    dumps_document,
    gframe_to_document,
    load_gframe,
    main,
    save_gframe,
)
from gweave.errors import ParseError, SchemaError
from gweave.gframe import new_gframe
from gweave.suite import (
    build_duplicate_vs_split_pair,
    build_overlapping_coordinate_pair,
    build_projection_family,
    build_scaled_split_pair,
    build_shifted_projection_pair,
)
from gweave.weaving import WeavingSelection, weave


@pytest.fixture
def paths(tmp_path):
    files = {}

    def save(name, frame):
        p = tmp_path / f"{name}.json"
        save_gframe(frame, str(p))
        files[name] = str(p)
        return str(p)

    save("proj", build_projection_family(4, 1))
    dup = build_duplicate_vs_split_pair(4)
    save("dup", dup.first)
    save("split", dup.second)
    sh = build_shifted_projection_pair(8)
    save("sh_first", sh.first)
    save("sh_second", sh.second)
    sc = build_scaled_split_pair(9)
    save("sc_first", sc.first)
    save("sc_second", sc.second)
    ov = build_overlapping_coordinate_pair(8)
    mixed = weave(ov.first, ov.second, WeavingSelection.from_indices(8, [1, 2]))
    save("ov_mixed", mixed)
    save("zero", new_gframe(2, [np.zeros((1, 2))]))
    files["dir"] = str(tmp_path)
    return files


class TestDocuments:
    def test_round_trip_is_canonical(self, paths):
        doc = json.loads(dumps_document(gframe_to_document(load_gframe(paths["dup"]))))
        again = json.loads(dumps_document(gframe_to_document(document_to_gframe(doc))))
        assert doc == again

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = new_gframe(3, [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))])
        p = tmp_path / "c.json"
        save_gframe(frame, str(p))
        loaded = load_gframe(str(p))
        assert all(np.array_equal(a, b) for a, b in zip(frame.blocks, loaded.blocks))

    def test_schema_error_names_label(self, tmp_path):
        doc = {
            "schema_version": "gweave/1",
            "scalar_mode": "real",
            "domain_dim": 2,
            "operators": [
                {"label": "probe", "rows": 2, "entries_real": [1.0, 0.0, 0.0]}
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_gframe(str(p))
        assert "probe" in str(err.value)

    def test_imag_required_in_complex_mode(self):
        doc = {
            "schema_version": "gweave/1",
            "scalar_mode": "complex",
            "domain_dim": 1,
            "operators": [{"label": "a", "rows": 1, "entries_real": [1.0]}],
        }
        with pytest.raises(SchemaError):
            document_to_gframe(doc)

    def test_imag_forbidden_in_real_mode(self):
        doc = {
            "schema_version": "gweave/1",
            "scalar_mode": "real",
            "domain_dim": 1,
            "operators": [
                {"label": "a", "rows": 1, "entries_real": [1.0], "entries_imag": [0.0]}
            ],
        }
        with pytest.raises(SchemaError):
            document_to_gframe(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError):
            document_to_gframe({"schema_version": "gweave/2"})

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": ')
        with pytest.raises(ParseError) as err:
            load_gframe(str(p))
        assert "line 1" in str(err.value)


class TestCommands:
    def test_bounds_projection(self, paths, capsys):
        assert main(["bounds", paths["proj"]]) == 0
        out = capsys.readouterr().out
        assert "lower bound A = 1" in out
        assert "g-frame: yes" in out

    def test_bounds_zero_family(self, paths, capsys):
        assert main(["bounds", paths["zero"]]) == 0
        assert "g-frame: no" in capsys.readouterr().out

    def test_bounds_duplicate_family_json(self, paths, capsys):
        assert main(["bounds", paths["dup"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["lower"] == pytest.approx(2.0)
        assert doc["results"]["upper"] == pytest.approx(2.0)

    def test_woven_negative_verdict(self, paths, capsys):
        assert main(["woven", paths["sh_first"], paths["sh_second"]]) == 0
        out = capsys.readouterr().out
        assert "NOT WOVEN" in out
        assert "certificate sigma={1}" in out
        assert "0b000000010" in out

    def test_woven_positive_verdict(self, paths, capsys):
        assert main(["woven", paths["sc_first"], paths["sc_second"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["woven"] is True
        assert doc["results"]["lower"] == pytest.approx(0.5)
        assert doc["results"]["upper"] == pytest.approx(1.5)

    def test_woven_identical_files(self, paths, capsys):
        assert main(["woven", paths["proj"], paths["proj"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["lower"] == pytest.approx(1.0)
        assert doc["results"]["upper"] == pytest.approx(1.0)

    def test_woven_search_mode(self, paths, capsys):
        assert (
            main(
                [
                    "woven",
                    paths["sc_first"],
                    paths["sc_second"],
                    "--search",
                    "100",
                    "--seed",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["method"] == "search"

    def test_check_riesz(self, paths, capsys):
        assert main(["check", paths["split"], "riesz"]) == 0
        assert "g-Riesz basis: yes" in capsys.readouterr().out

    def test_check_onb(self, paths, capsys):
        assert main(["check", paths["proj"], "onb"]) == 0
        assert "g-orthonormal basis: yes" in capsys.readouterr().out

    def test_check_exact_on_mixed_weaving(self, paths, capsys):
        assert main(["check", paths["ov_mixed"], "exact", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["verdict"] is False
        # block 2 is removable: its post-removal lower bound stays positive
        assert doc["results"]["removal_lower_bounds"][1] > 1e-6

    def test_check_dual(self, paths, tmp_path, capsys):
        dual_path = str(tmp_path / "dual.json")
        assert main(["dual", paths["dup"], "-o", dual_path]) == 0
        capsys.readouterr()
        assert main(["check", paths["dup"], "dual", "--with", dual_path]) == 0
        assert "dual pair: yes" in capsys.readouterr().out

    def test_transform_parseval(self, paths, tmp_path, capsys):
        out_path = str(tmp_path / "parseval.json")
        assert main(["transform-parseval", paths["dup"], "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["bounds", out_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["lower"] == pytest.approx(1.0)
        assert doc["results"]["upper"] == pytest.approx(1.0)

    def test_paper_suite_passes(self, capsys):
        assert main(["paper-suite"]) == 0
        out = capsys.readouterr().out
        assert "records passed" in out
        assert "FAIL" not in out

    def test_paper_suite_json(self, capsys):
        assert main(["paper-suite", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["passed"] is True

    def test_paper_suite_dim_scale(self, capsys):
        assert main(["paper-suite", "--dim-scale", "1.5"]) == 0


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["bounds", "/nonexistent/file.json"]) == 2

    def test_schema_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": "nope"}))
        assert main(["bounds", str(p)]) == 2

    def test_cap_exceeded_is_input_error(self, paths, capsys):
        assert (
            main(["woven", paths["sh_first"], paths["sh_second"], "--cap", "3"]) == 2
        )

    def test_env_cap_override(self, paths, capsys, monkeypatch):
        monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", "3")
        assert main(["woven", paths["sh_first"], paths["sh_second"]]) == 2
        monkeypatch.delenv("GWEAVE_EXHAUSTIVE_CAP")
        assert main(["woven", paths["sh_first"], paths["sh_second"]]) == 0

    def test_dual_of_non_frame_is_input_error(self, paths, capsys):
        assert main(["dual", paths["zero"]]) == 2

    def test_more_blocks_than_a_mask_holds_is_input_error(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_gframe(new_gframe(1, [np.ones((1, 1))] * 63), str(first))
        save_gframe(new_gframe(1, [2 * np.ones((1, 1))] * 63), str(second))
        assert main(["woven", str(first), str(second), "--cap", "70"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 63 blocks") and err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(gweave.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "gweave", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "paper-suite" in proc.stdout


class TestDeterminism:
    def _results(self, argv, capsys):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        return json.dumps(doc["results"], sort_keys=True)

    def test_woven_results_byte_identical(self, paths, capsys):
        argv = ["woven", paths["sc_first"], paths["sc_second"], "--json"]
        assert self._results(argv, capsys) == self._results(argv, capsys)

    def test_search_results_byte_identical(self, paths, capsys):
        argv = [
            "woven",
            paths["sc_first"],
            paths["sc_second"],
            "--search",
            "50",
            "--seed",
            "7",
            "--json",
        ]
        assert self._results(argv, capsys) == self._results(argv, capsys)

    def test_bounds_results_byte_identical(self, paths, capsys):
        argv = ["bounds", paths["dup"], "--json"]
        assert self._results(argv, capsys) == self._results(argv, capsys)
