"""The demos run end to end against the package."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_similarity_scores_demo_runs(capsys):
    # the only caller of cka_minibatch outside the tests
    runpy.run_path(str(DEMOS / "01_similarity_scores.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "identical activations:           1.000000" in out
    assert "mini: " in out
