"""What the package shows its readers: the exported names and the README."""

import ast
import contextlib
import dataclasses
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

import voxlab
from voxlab.replearn import RepLearnConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names_read_by_the_library_and_benchmark():
    """Every name the library reads (outside ``__init__.py``) and every
    voxlab name the benchmark reads.  Only Name, Attribute and ImportFrom
    nodes count, so a docstring mention does not.  The benchmark counts only
    what it imports from voxlab or reads as a ``drivers.`` or ``evalcover.``
    attribute: it defines its own ``combination_lock``."""
    used = set()
    for path in (ROOT / "src" / "voxlab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for path in (ROOT / "voxbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voxlab"):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("drivers", "evalcover")):
                used.add(node.attr)
    return used


def test_exports_that_only_tests_use_are_pinned():
    """The exported functions that no library module and no benchmark
    workload reads.  Each has a planned reader or a reason to stay:

    - ``check_design_on_policies``, ``coverability_ratio``,
      ``exact_transfer_error`` and ``reachability_diagnostics`` are the
      exact evaluators the planned ``voxlab report`` command prints
      (ROADMAP item 3);
    - ``combination_lock`` is the library lock that the d = 3 gate and the
      reachability dial will build on, and that the benchmark will import
      in place of its own copy (ROADMAP items 9 and 21);
    - ``pdl_check`` is the only library caller of ``exact_q_tables``, so
      moving it out would orphan that primitive;
    - ``ball_constrained_least_squares`` is looked up by name by the
      benchmark's tracer (``voxbench/tracing.py``), which this check does
      not count; it goes when the tracer traces ``BallLeastSquares``
      instead (ROADMAP items 2(a) and 12);
    - ``verify_spanner`` is the spanner check that the planned audit runs
      on exact feature expectations (ROADMAP item 20).

    A new export must join a run path, or this list with its reason."""
    exported = {name for name in voxlab.__all__ if not name.startswith("__")}
    assert exported - _names_read_by_the_library_and_benchmark() == {
        "ball_constrained_least_squares",
        "check_design_on_policies",
        "combination_lock",
        "coverability_ratio",
        "exact_transfer_error",
        "pdl_check",
        "reachability_diagnostics",
        "verify_spanner",
    }


def test_the_readme_example_runs_as_documented():
    # the first Python block of the README spends the 432,000 episodes the
    # text after it states, and its cover check passes
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    episodes, alpha, passed = out.getvalue().split()
    assert "It spends 432,000 episodes" in readme
    assert episodes == "432000"
    assert 0.01 <= float(alpha) <= 1.0
    assert passed == "True"


def test_the_readme_names_exactly_the_fields_of_replearn_config():
    readme = " ".join((ROOT / "README.md").read_text().split())
    count, names = re.search(r"`RepLearnConfig` has (\w+) fields, (.*?):", readme).groups()
    fields = [f.name for f in dataclasses.fields(RepLearnConfig)]
    assert re.findall(r"`(\w+)`", names) == fields
    assert count == ("three", "four", "five", "six")[len(fields) - 3]


def test_the_readme_cli_block_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text()
    cli = readme[readme.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    script = f'voxlab() {{ {shlex.quote(sys.executable)} -m voxlab.cli "$@"; }}\n' + block
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.json").is_file()
    assert (tmp_path / "opt.json").is_file()


def test_every_module_reads_what_it_imports():
    """An ``ast`` scan of the library (``__init__.py`` re-exports, so it is
    left out) and the tests.  An imported name is read when a ``Name`` node
    holds it; the root of an attribute chain is such a node, so
    ``np.linalg.norm`` reads ``np``."""
    unread = []
    paths = [p for p in (ROOT / "src" / "voxlab").glob("*.py")
             if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unread == []
