"""README's library sketch runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    # the one python block: a Morse feedback run over one period, which
    # prints its worst overlap with the translated ground density
    (sketch,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                           re.MULTILINE | re.DOTALL)
    exec(compile(sketch, str(README), "exec"), {})
    (line,) = capsys.readouterr().out.splitlines()
    assert abs(float(line) - 1.0) < 1e-9
