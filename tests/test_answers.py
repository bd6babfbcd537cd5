"""The answer comparison of tools/answers.py: its field differences and one end-to-end run."""

import importlib.util
import shutil
from pathlib import Path

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
