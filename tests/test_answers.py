"""The answer comparison of tools/answers.py: its field differences, its CLI answers and one end-to-end run."""

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

from gweave.cli import gframe_to_document, main
from gweave.gframe import new_gframe

_PATH = Path(__file__).resolve().parents[1] / "tools" / "answers.py"
_SPEC = importlib.util.spec_from_file_location("answers", _PATH)
answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answers)


def test_each_differing_field_is_named_with_both_values_and_its_size():
    old = {
        "search seed 11 #000 f {}": {"lower": 1.0, "argmin": {"mask": 3}, "woven": True},
        "scan seed 11 #001 g {}": {"bounds": [1.0, float("nan")], "method": "exhaustive"},
        "scan seed 11 #002 h {}": {"error": "ShapeMismatch: x"},
    }
    new = {
        "search seed 11 #000 f {}": {"lower": 1.5, "argmin": {"mask": 2}, "woven": False},
        "scan seed 11 #001 g {}": {"bounds": [1.0, float("nan")], "method": "exhaustive"},
        "scan seed 11 #003 h {}": {"lower": 0.0},
    }
    assert answers.report(old, new) == [
        "scan seed 11 #002 h {}: only in the parent",
        "scan seed 11 #003 h {}: only in the change",
        "search seed 11 #000 f {}",
        "  lower: 1.0 -> 1.5 (by 0.5)",
        "  argmin.mask: 3 -> 2 (by 1)",
        "  woven: True -> False",
    ]
    assert list(answers.differences([1, 2], [1, 2, 3])) == [("", [1, 2], [1, 2, 3])]


def test_a_cli_answer_names_its_inputs_by_document_and_drops_its_timing(tmp_path):
    """Stdout and exit code are kept; paths become document names, and the timing goes."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(gframe_to_document(new_gframe(2, [[1.0, 0.0], [0.0, 2.0]]))))
    paths = {"family": str(path)}
    got = answers.cli_answer(main, ["bounds", "@family", "--json"], paths)
    assert got["exit"] == 0
    assert "timing_seconds" not in got["stdout"] and got["stdout"]["command"] == "bounds"
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got["stdout"]["inputs"] == [{"path": "family", "sha256": sha}]
    text = answers.cli_answer(main, ["bounds", "@family"], paths)["stdout"]
    assert text.startswith("lower bound A = 1\n")
    assert answers.normalised(f"wrote {path}\n", paths) == "wrote family\n"
    missing = answers.cli_answer(main, ["bounds", str(tmp_path / "none.json")], {})
    assert missing == {"exit": 2, "stdout": ""}
    assert answers.normalised('{"timing_seconds": 1.5, "x": [1]}', {}) == {"x": [1]}
    assert answers.normalised("[1, 2]", {}) == [1, 2]


def test_a_checkout_compared_with_a_copy_of_itself_differs_nowhere(monkeypatch, capsys):
    """Both sides answer the ``search`` workload of one seed in child processes, with the same answers."""

    def export(rev, dest):
        for part in ("src", "perfbench"):
            shutil.copytree(answers.ROOT / part, Path(dest) / part)
        return "0" * 40

    monkeypatch.setattr(answers, "export", export)
    code = answers.main(["--seeds", "11", "--workloads", "search"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == ["0 of 100 answers differ from 000000000000"]
