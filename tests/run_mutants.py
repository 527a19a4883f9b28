"""Check that the tests tell each mutant of `mutants.py` from the library.

    python tests/run_mutants.py

First runs every named test on an unmutated copy of the tree, where all must
pass.  Then, for each mutant, copies the tree to a temporary directory,
replaces the one occurrence of its old text, runs only its named tests and
requires every one of them to fail.  Mutants run concurrently, one per
usable core, and are reported in list order.  Exits 0 when every mutant is
killed, 1 when one survives, and with a message when a mutant or its tests
no longer match the tree.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import DIGEST_TESTS, MUTANTS  # noqa: E402

REPORTED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def copy_tree(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
        ".bench_build"))


def failing(tree, tests):
    """The named tests that fail or error when pytest runs them in ``tree``;
    a parametrized test counts as failing when any of its cases does."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest could not run the named tests (exit "
                 f"{proc.returncode}):\n{proc.stdout}{proc.stderr}")
    reported = REPORTED.findall(proc.stdout)
    return [t for t in tests
            if any(r == t or r.startswith(t + "[") for r in reported)]


def surviving_tests(m):
    """The tests named by mutant ``m`` that still pass with it applied to a
    temporary copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        path = tree / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            sys.exit(f"mutant {m.name!r}: its old text occurs "
                     f"{text.count(m.old)} times in {m.file}, not once")
        path.write_text(text.replace(m.old, m.new))
        return [t for t in m.tests if t not in failing(tree, list(m.tests))]


def main():
    for m in MUTANTS:
        if not set(m.tests) - DIGEST_TESTS:
            sys.exit(f"mutant {m.name!r} names no test but the digest tests")
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        broken = failing(tree, named)
        if broken:
            sys.exit("named tests fail on the unmutated tree: " + ", ".join(broken))
    survivors = 0
    pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)))
    try:
        for m, passed in zip(MUTANTS, pool.map(surviving_tests, MUTANTS)):
            if passed:
                survivors += 1
                print(f"SURVIVED  {m.name}: {', '.join(passed)} still pass")
            else:
                print(f"killed    {m.name} ({len(m.tests)} of {len(m.tests)} named tests fail)")
    finally:
        pool.shutdown(cancel_futures=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
