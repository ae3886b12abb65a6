"""Print each line of the gtorsion package that no Tier-1 test runs.

    python3 tools/linecov.py CHECKOUT

CHECKOUT is the root of a gtorsion checkout.  The tool runs its Tier-1 suite
(``tests/``) in process under a ``sys.settrace`` line tracer, lets pytest
print its summary, and then prints, module by module, each line of
``src/gtorsion`` that holds code and that no test ran, as
``module.py:LINE: text``, followed by their count.  Lines that run only in a
child process (the fresh-interpreter and bench smoke tests) are not seen.
Tracing slows every example down, so Hypothesis deadlines are switched off;
nothing else changes, and the outcomes are those of a plain Tier-1 run.

It writes nothing in CHECKOUT: no bytecode (child processes included) and no
pytest cache, and the run's working directory, where Hypothesis keeps its
example database, is a temporary one.  It needs pytest and Hypothesis, as
the suite does; otherwise it uses the standard library only.  The exit code
is pytest's.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading

_PACKAGE = ""  # the package directory, with a trailing separator
_RAN: set[tuple[str, int]] = set()


# Both trace functions are module-level: a closure that refers to itself
# would leave a reference cycle behind in every traced frame, which the
# suite's garbage checks would see.
def _trace_calls(frame, event, arg):
    """The global tracer: trace lines only in frames of the package."""
    return _trace_lines if frame.f_code.co_filename.startswith(_PACKAGE) else None


def _trace_lines(frame, event, arg):
    if event == "line":
        _RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def main(argv=None) -> int:
    global _PACKAGE
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    root = os.path.abspath(args[0])
    _PACKAGE = os.path.join(root, "src", "gtorsion") + os.sep
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    import pytest
    from hypothesis import settings

    settings.register_profile("linecov", deadline=None)
    settings.load_profile("linecov")
    pytest_args = [os.path.join(root, "tests"), "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                   "--rootdir", root, "-c", os.path.join(root, "pyproject.toml")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        threading.settrace(_trace_calls)
        sys.settrace(_trace_calls)
        try:
            code = pytest.main(pytest_args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
    missed = 0
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = _PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        for line in sorted(code_lines(compile(text, path, "exec")) - {ln for f, ln in _RAN if f == path}):
            print(f"{name}:{line}: {lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/gtorsion run by no Tier-1 test")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
