"""File format, commands, exit codes, and report determinism."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import dataclass
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
from gweave import cli, suite, weaving
from gweave.errors import GWeaveError, ParseError, SchemaError, ShapeMismatch, TooManyBlocks
from gweave.gframe import new_gframe
from gweave.suite import (
    SuiteConfig,
    build_duplicate_vs_split_pair,
    build_overlapping_coordinate_pair,
    build_projection_family,
    build_scaled_split_pair,
    build_shifted_projection_pair,
    run_suite,
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

    @pytest.mark.parametrize(
        "tol, error",
        [
            ("0.4", "NotAFrame: exactness is only defined for frames"),
            ("0.6", "NotWoven: universal lower bound 5.000e-01 below threshold"),
        ],
    )
    def test_paper_suite_error_in_a_statement_fails_its_record(self, capsys, tol, error):
        """A statement that raises fails its own record; every other record is still written."""
        assert main(["paper-suite", "--tol", tol]) == 1
        assert capsys.readouterr().out.endswith(" records passed\n")
        assert main(["paper-suite", "--tol", tol, "--json"]) == 1
        records = json.loads(capsys.readouterr().out)["results"]["records"]
        assert len(records) == 22
        errors = [r for r in records if r["method"] == "error"]
        assert errors and not any(r["passed"] for r in errors)
        assert error in [r["detail"] for r in errors]

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_paper_suite_with_a_cap_below_every_pair_skips_the_exhaustive_records(
        self, capsys, cap
    ):
        assert main(["paper-suite", "--cap", cap, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["results"]["records"]
        assert len(records) == 22
        skipped = {r["name"] for r in records if r["detail"].startswith("skipped")}
        assert "dual-pair-weaving-guarantee" in skipped
        assert {r["method"] for r in records if r["name"] in skipped} == {"skipped"}
        assert main(["paper-suite", "--cap", cap]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("SKIP  ") for line in lines) == len(skipped)
        passed = 22 - len(skipped)
        assert lines[-1] == f"0 failed, {len(skipped)} skipped, {passed}/22 records passed"


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["bounds", "/nonexistent/file.json"]) == 2

    def test_schema_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": "nope"}))
        assert main(["bounds", str(p)]) == 2

    @pytest.mark.parametrize(
        "dim, rows, entries",
        [
            ("2", "1", '["1.0", 0.0]'),
            ("2", "1", "[1.0, true]"),
            ("2", "true", "[1.0, 0.0]"),
            ("true", "1", "[1.0]"),
            ("2", "1", "[1.0, NaN]"),
            ("2", "1", "[Infinity, 0.0]"),
            ("1", "1", "[1" + "0" * 400 + "]"),
        ],
        ids=["string-entry", "bool-entry", "bool-rows", "bool-domain-dim", "nan", "infinity", "huge-int"],
    )
    def test_non_numbers_are_schema_errors(self, tmp_path, capsys, dim, rows, entries):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"schema_version": "gweave/1", "scalar_mode": "real", "domain_dim": ' + dim
            + ', "operators": [{"label": "a", "rows": ' + rows
            + ', "entries_real": ' + entries + "}]}"
        )
        with pytest.raises(SchemaError):
            load_gframe(str(p))
        assert main(["bounds", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "proj"],
            ["woven", "proj", "proj"],
            ["check", "proj", "onb"],
            ["dual", "dup"],
            ["transform-parseval", "dup"],
            ["paper-suite"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_must_be_finite_and_non_negative(self, paths, capsys, argv, tol):
        argv = [paths.get(a, a) for a in argv]
        assert main([*argv, f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must be a finite non-negative number")

    def test_dual_check_without_a_second_family_is_input_error(self, paths, capsys):
        assert main(["check", paths["proj"], "dual"]) == 2
        assert capsys.readouterr().err == "error: kind 'dual' needs --with PATH2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["woven", "sc_first", "sc_second", "--search", "1"],
            ["paper-suite", "--cap", "4"],
            ["paper-suite"],
        ],
        ids=["woven-search", "paper-suite-above-cap", "paper-suite"],
    )
    def test_negative_seed_is_input_error(self, paths, capsys, argv):
        argv = [paths.get(a, a) for a in argv]
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0"])
    def test_dim_scale_must_be_finite_and_positive(self, capsys, scale):
        assert main(["paper-suite", f"--dim-scale={scale}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dim_scale must be a finite positive number")
        with pytest.raises(ShapeMismatch):
            run_suite(SuiteConfig(dim_scale=float(scale)))

    @pytest.mark.parametrize("scale", ["1e308", "8"])
    def test_dim_scale_beyond_a_mask_is_input_error(self, capsys, monkeypatch, scale):
        # refused before any family is built
        monkeypatch.setattr(suite, "build_projection_family", lambda *a: pytest.fail("built"))
        assert main(["paper-suite", f"--dim-scale={scale}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dim_scale {float(scale)!r} builds pairs of more than 62 blocks")
        assert err.endswith("the largest dim_scale is 6.944\n")
        with pytest.raises(TooManyBlocks):
            run_suite(SuiteConfig(dim_scale=float(scale)))

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_paper_suite_budget_below_one_is_input_error(self, capsys, monkeypatch, budget):
        # refused before any family is built, also at a scale with no sampled pair
        monkeypatch.setattr(suite, "build_projection_family", lambda *a: pytest.fail("built"))
        for scale in ("1", "4"):
            assert main(["paper-suite", "--budget", budget, "--dim-scale", scale]) == 2
            err = capsys.readouterr().err
            assert err == f"error: budget must be an integer of at least 1, got {budget}\n"

    @pytest.mark.parametrize("command", ["dual", "transform-parseval"])
    def test_output_file_holds_the_printed_document(self, paths, tmp_path, capsys, command):
        assert main([command, paths["dup"]]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main([command, paths["dup"], "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == printed

    @pytest.mark.parametrize(
        "argv", [["paper-suite"], ["woven", "proj", "proj"]], ids=lambda argv: argv[0]
    )
    def test_negative_cap_is_input_error(self, paths, capsys, monkeypatch, argv):
        argv = [paths.get(a, a) for a in argv]
        assert main([*argv, "--cap", "-1"]) == 2
        assert capsys.readouterr().err == "error: the exhaustive cap must be at least 0, got -1\n"
        monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", "-3")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the exhaustive cap must be at least 0, got -3\n"

    @pytest.mark.parametrize("kind", ["frame", "exact", "riesz", "onb"])
    def test_with_on_a_kind_other_than_dual_is_input_error(self, paths, tmp_path, capsys, kind):
        for other in (str(tmp_path / "missing.json"), paths["dup"]):
            assert main(["check", paths["dup"], kind, "--with", other]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: --with applies only to kind 'dual', not {kind!r}\n"

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

    def test_search_budget_beyond_the_seed_limit_is_input_error(
        self, tmp_path, capsys, monkeypatch
    ):
        path = str(tmp_path / "f62.json")
        save_gframe(new_gframe(1, [np.ones((1, 1))] * 62), path)
        # refused before any seed is drawn
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew seeds"))
        assert main(["woven", path, path, "--search", "1000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: budget 1000000000000000 is below the {1 << 62} selections and"
            f" above the {weaving.MAX_SEARCH_BUDGET} seeds a search draws\n"
        )
        # a budget that covers every selection still runs the full scan
        small = str(tmp_path / "f4.json")
        save_gframe(new_gframe(1, [np.ones((1, 1))] * 4), small)
        monkeypatch.undo()
        assert main(["woven", small, small, "--search", "1000000000000000", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["method"] == "exhaustive"


def _run_cli(argv):
    src = str(Path(gweave.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-m", "gweave", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "case", ["not-utf8", "nested-5000-deep", "dual-to-missing-dir", "parseval-to-missing-dir"]
)
def test_unreadable_input_and_unwritable_output_are_input_errors(tmp_path, case):
    """Exit 2 with one ``error:`` line naming the file, nothing on stdout and no traceback."""
    family = str(tmp_path / "F.json")
    save_gframe(build_projection_family(4, 1), family)
    bad = tmp_path / "bad.json"
    missing = str(tmp_path / "missing" / "out.json")
    if case == "not-utf8":
        bad.write_bytes(b'\xff\xfe{"schema_version": "gweave/1"}')
        argv, named = ["bounds", str(bad)], str(bad)
    elif case == "nested-5000-deep":
        bad.write_text("[" * 5000 + "]" * 5000)
        argv, named = ["bounds", str(bad)], str(bad)
    else:
        command = "dual" if case.startswith("dual") else "transform-parseval"
        argv, named = [command, family, "-o", missing], missing
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {named}: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# Rows of 1e155: every Gram entry they give, 1e310, is beyond float64.
BIG = new_gframe(2, [[1e155, 0.0], [0.0, 1e155]])


@pytest.mark.parametrize("search", [[], ["--search", "1"]], ids=["exhaustive", "search"])
@pytest.mark.parametrize("second", ["big", "one"])
def test_woven_on_a_pair_whose_grams_overflow_is_an_input_error(tmp_path, search, second):
    """Exit 2 with one ``error:`` line: no traceback, no warning and no report holding inf."""
    save_gframe(BIG, str(tmp_path / "big.json"))
    save_gframe(new_gframe(2, [[1.0, 0.0], [0.0, 1.0]]), str(tmp_path / "one.json"))
    first, second = str(tmp_path / "big.json"), str(tmp_path / f"{second}.json")
    proc = _run_cli(["woven", first, second, *search])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


HOSTILE = {
    "overflow": BIG,
    "zero-rows": new_gframe(3, [np.zeros((0, 3)), np.zeros((0, 3))]),
    "d1": new_gframe(1, [[2.0]]),
    # a finite frame operator, every entry 7.2e307, whose largest eigenvalue is beyond float64
    "spectrum-overflow": new_gframe(3, [[8.5e153] * 3]),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_no_input_escapes_main(tmp_path, capsys, name):
    """Every subcommand answers a hostile document with exit 0, 1 or 2 and lets no exception out.

    RuntimeWarnings are errors in this suite, so a warning escapes too.  A
    command that answers with ``--json`` prints no ``Infinity`` and no ``NaN``.
    """
    path = str(tmp_path / "f.json")
    save_gframe(HOSTILE[name], path)
    commands = [
        ["bounds", path],
        *(["check", path, kind] for kind in ("frame", "exact", "riesz", "onb")),
        ["check", path, "dual", "--with", path],
        ["woven", path, path],
        ["woven", path, path, "--search", "1"],
        ["dual", path],
        ["transform-parseval", path],
    ]
    for argv in commands:
        assert main(argv) in (0, 1, 2), argv
        capsys.readouterr()
        if argv[0] in ("bounds", "check", "woven"):
            code = main([*argv, "--json"])
            out = capsys.readouterr().out
            assert code in (0, 1, 2), argv
            assert code != 0 or ("Infinity" not in out and "NaN" not in out), argv


def test_option_defaults_come_from_their_owners(monkeypatch):
    """Every ``--tol`` defaults to ``DEFAULT_TOL``, and ``paper-suite`` to ``SuiteConfig``'s values.

    ``paper-suite`` reads ``SuiteConfig`` when it runs, not when the parser is
    built, so that no other command imports ``suite``.
    """
    monkeypatch.setattr(cli, "DEFAULT_TOL", 0.25)

    @dataclass(frozen=True)
    class Config(SuiteConfig):
        dim_scale: float = 2.0
        seed: int = 7
        search_budget: int = 9

    configs = []

    def record(config):
        configs.append(config)
        raise GWeaveError("recorded")

    monkeypatch.setattr(suite, "SuiteConfig", Config)
    monkeypatch.setattr(suite, "run_suite", record)
    parser = cli.build_parser()
    for argv in (
        ["bounds", "f"],
        ["woven", "f", "g"],
        ["check", "f", "frame"],
        ["dual", "f"],
        ["transform-parseval", "f"],
        ["paper-suite"],
    ):
        assert parser.parse_args(argv).tol == 0.25, argv
    assert main(["paper-suite"]) == 2
    assert main(["paper-suite", "--seed", "3", "--budget", "5"]) == 2
    fields = [(c.dim_scale, c.seed, c.search_budget, c.tol) for c in configs]
    assert fields == [(2.0, 7, 9, 0.25), (2.0, 3, 5, 0.25)]


def test_python_dash_m_runs_the_cli():
    proc = _run_cli(["--help"])
    assert proc.returncode == 0
    assert "paper-suite" in proc.stdout


def test_python_dash_m_gweave_cli_runs_without_runpy_warning():
    # the package must not import gweave.cli itself, or runpy warns and runs cli.py twice
    src = str(Path(gweave.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "gweave.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "paper-suite" in proc.stdout
    assert proc.stderr == ""


def test_package_loads_the_cli_lazily():
    src = str(Path(gweave.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, gweave; assert 'gweave.cli' not in sys.modules;"
        " assert gweave.load_gframe is gweave.cli.load_gframe;"
        " assert gweave.save_gframe is sys.modules['gweave.cli'].save_gframe"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _fresh_modules(argv) -> tuple:
    """``cli.main(argv)``'s exit code in a fresh interpreter, and the gweave modules it then holds."""
    src = str(Path(gweave.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, gweave.cli\n"
        "code = gweave.cli.main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('gweave.')), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stderr.splitlines()[-1].split()
    return int(code), set(modules)


# The modules only a pair, a suite or an exactness test needs.
ON_DEMAND = {"gweave._kernels", "gweave.induced", "gweave.suite", "gweave.weaving"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["bounds", "proj"], set()),
        (["check", "proj", "dual", "--with", "proj"], set()),
        (["dual", "proj"], set()),
        (["transform-parseval", "proj"], set()),
        # the classification printed with frame, riesz and onb runs the exactness
        # test, whose removal spectra come from the kernel, on a frame only
        (["check", "zero", "frame"], set()),
        (["check", "zero", "riesz"], set()),
        (["check", "proj", "frame"], {"gweave._kernels"}),
        (["check", "proj", "riesz"], {"gweave._kernels"}),
        (["check", "proj", "onb"], {"gweave._kernels"}),
        (["check", "proj", "exact"], {"gweave._kernels"}),
        (["woven", "dup", "split"], {"gweave._kernels", "gweave.weaving"}),
        (["woven", "dup", "split", "--search", "4"], {"gweave._kernels", "gweave.weaving"}),
        (["paper-suite"], ON_DEMAND),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_command_imports_only_the_modules_it_runs(paths, argv, loaded):
    argv = [paths.get(a, a) for a in argv]
    code, modules = _fresh_modules(argv)
    assert code in (0, 1)
    assert modules & ON_DEMAND == loaded
    assert {"gweave.cli", "gweave.errors", "gweave.gframe", "gweave.linalg"} <= modules


def test_public_names_resolve_to_the_objects_their_modules_define():
    for name in gweave.__all__:
        obj = getattr(gweave, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"gweave.{name}"]
        else:
            assert obj.__module__.startswith("gweave.")
            assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from gweave import *", namespace)
    assert all(namespace[name] is getattr(gweave, name) for name in gweave.__all__)
    assert set(gweave.__all__) <= set(dir(gweave))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        gweave.nothing
    # perfbench's serving process records the backend through this attribute
    assert getattr(gweave, "_kernels").backend() == "numpy"


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

    def test_paper_suite_results_byte_identical(self, capsys):
        argv = ["paper-suite", "--json"]
        assert self._results(argv, capsys) == self._results(argv, capsys)
