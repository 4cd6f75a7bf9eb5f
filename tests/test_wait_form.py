"""One way to wait out a fixed delay: a process yields the seconds.

``yield sim.timeout(x)`` builds, schedules and recycles a ``Timeout``
only to resume one process; ``yield x`` makes the same kernel entry
with no object (``repro.sim.kernel``). This test keeps the package's
process bodies on the float form. ``sim.timeout`` stays legal where the
wait is not yielded directly: composed into ``AllOf``/``AnyOf``, given a
value, or handed to another process. ``repro/perf/`` is skipped: its
kernel microbenchmarks time ``sim.timeout`` itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SKIPPED = ("perf",)


def yielded_timeouts(source: str):
    """Line numbers of every ``yield <expr>.timeout(...)`` in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "timeout"
        ):
            yield node.lineno


def test_the_checker_sees_both_forms():
    source = (
        "def body(sim, pipe):\n"
        "    yield sim.timeout(1.0)\n"
        "    yield self.sim.timeout(x)\n"
        "    yield 1.0\n"
        "    handed = sim.timeout(pipe.transfer(8))\n"
        "    yield sim.all_of([sim.timeout(1.0)])\n"
    )
    assert list(yielded_timeouts(source)) == [2, 3]


def test_no_process_body_yields_a_timeout():
    modules = [
        path
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] not in SKIPPED
    ]
    assert len(modules) > 50
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in yielded_timeouts(path.read_text())
    ]
    assert found == [], (
        "yield the delay itself (`yield x`), not `sim.timeout(x)`: " + ", ".join(found)
    )
