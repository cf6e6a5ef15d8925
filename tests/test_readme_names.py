"""The package names README.md cites in backticks are still bound.

README.md points its readers at helpers by name (`cuts._subset_tasks`,
`_run`).  Renaming or deleting one leaves the pointer stale
without failing anything else, so this looks each one up: a
module-qualified name on its module, a bare private name on any module
of the package.
"""

from __future__ import annotations

import re
from pathlib import Path

import ugconn.cayley
import ugconn.cli
import ugconn.cuts
import ugconn.flows
import ugconn.genset
import ugconn.lemmas
import ugconn.perms

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {
    "cayley": ugconn.cayley,
    "cli": ugconn.cli,
    "cuts": ugconn.cuts,
    "flows": ugconn.flows,
    "genset": ugconn.genset,
    "lemmas": ugconn.lemmas,
    "perms": ugconn.perms,
}
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
QUALIFIED = re.compile(r"({})\.([A-Za-z_]\w*)".format("|".join(MODULES)))
PRIVATE = re.compile(r"_[A-Za-z]\w*")


def _cited(text: str) -> tuple[set, set]:
    """({(module, name)}, {private name}) cited at the start of inline code spans."""
    qualified, private = set(), set()
    for span in SPAN.findall(FENCE.sub("", text)):
        if m := QUALIFIED.match(span):
            qualified.add(m.groups())
        elif m := PRIVATE.match(span):
            private.add(m.group())
    return qualified, private


def test_the_scan_reads_the_readme_citations():
    qualified, private = _cited(README.read_text())
    assert {
        ("cuts", "_subset_tasks"),
        ("cuts", "TRIAL_BLOCK"),
        ("cayley", "_anchors"),
        ("lemmas", "CheckContext"),
    } <= qualified
    assert {"_run", "_keeps_degree"} <= private


def test_every_name_the_readme_cites_is_bound():
    qualified, private = _cited(README.read_text())
    missing = [f"{m}.{n}" for m, n in sorted(qualified) if not hasattr(MODULES[m], n)]
    missing += [
        n
        for n in sorted(private)
        if not any(hasattr(module, n) for module in MODULES.values())
    ]
    assert not missing
