"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
import warnings
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    # the first python block after the "## Library quick tour" heading
    section = _README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_prints_what_its_comments_say():
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(_quick_tour(), str(_README), "exec"), {})
    law, closed_form, by_hand, scan, smallest = out.getvalue().splitlines()
    assert abs(float(law)) <= 1e-13
    assert 0.0 <= float(closed_form) <= 1e-7 and 0.0 <= float(by_hand) <= 1e-7
    min_value, sign_changes = scan.split(" ", 1)
    assert float(min_value) > 0.0 and sign_changes == "[]"
    assert float(smallest) > 0.0
