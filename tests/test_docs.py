"""README's library tour runs, and the public namespace is what the
README and docs/ document."""

import re
from pathlib import Path

import daeobs

ROOT = Path(__file__).resolve().parent.parent


def _tour_code() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_tour_runs():
    scope = {}
    exec(compile(_tour_code(), "README.md library tour", "exec"), scope)
    assert scope["observer"].sigma > 0.0
    assert scope["real"].rho <= 1.0 + 1e-9


def test_public_names_are_documented():
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))])
    missing = [name for name in daeobs.__all__
               if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text)]
    assert missing == []
