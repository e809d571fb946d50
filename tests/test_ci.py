"""The CI workflow's weekly ``thorough`` job still selects the tests it names."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# collects the suite once and prints how many tests each name given on the
# command line selects, matched as ``-k NAME`` matches an item
_COUNT_SELECTED = """
import sys
import pytest
from _pytest.mark import KeywordMatcher

class Selected:
    def pytest_collection_finish(self, session):
        matchers = [KeywordMatcher.from_item(item) for item in session.items]
        self.counts = {term: sum(m(term) for m in matchers)
                       for term in sys.argv[1:]}

selected = Selected()
pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider"],
            plugins=[selected])
for term, n in selected.counts.items():
    print(f"SELECTED {term} {n}")
"""


def thorough_terms():
    """The terms of the thorough job's ``-k`` expression, which must be a
    plain ``or`` of names."""
    match = re.search(r'--hypothesis-profile=thorough\s+-k\s+"([^"]*)"',
                      WORKFLOW.read_text())
    assert match, "the thorough job passes no -k expression"
    expression = " ".join(match.group(1).split())
    assert re.fullmatch(r"\w+( or \w+)*", expression), expression
    return expression.split(" or ")


def test_each_thorough_term_selects_a_test():
    terms = thorough_terms()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _COUNT_SELECTED, *terms],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True).stdout
    counts = {term: int(n) for term, n in
              re.findall(r"^SELECTED (\w+) (\d+)$", out, flags=re.MULTILINE)}
    assert list(counts) == terms, out
    assert all(counts.values()), counts
