"""The README's library quickstart runs as printed."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
    dphi_hat, sigma = map(float, capsys.readouterr().out.split())
    assert abs(dphi_hat - 0.002) < 5.0 * sigma
