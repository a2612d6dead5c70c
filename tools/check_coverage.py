#!/usr/bin/env python
"""CI gate: registry-driven coverage checks (fault sites, trace kinds).

One entry point for the "did the test surface keep up with the
production surface?" drift checks:

* **faults** — every registered fault site
  (:mod:`repro.faults.registry`, the single source of truth for where
  faults can be injected) appears in at least one collected
  ``faults``-marked test id, so adding a ``fire()`` site without
  extending the crash/transient sweeps fails CI instead of silently
  shipping an unexercised failure path.
* **trace** — every :class:`repro.trace.EventKind` member is both
  emitted somewhere under ``src/`` and documented in the event table
  of ``docs/OBSERVABILITY.md``, catching dead kinds and doc drift; and
  no module outside the presentation layers (``repro/core/``,
  ``repro/workstation/``, ``repro/audio/``) names ``EventKind``, so
  server, cluster, delivery, index and codec work is counted in
  metrics and spans instead of leaking onto the paper's observable
  surface.

Usage::

    PYTHONPATH=src python tools/check_coverage.py            # both
    PYTHONPATH=src python tools/check_coverage.py --only faults
    PYTHONPATH=src python tools/check_coverage.py --only trace

Exits non-zero listing every gap found.  (Line coverage is a separate
concern: the CI tier-1 job runs pytest-cov with a floor; this script
checks *registry* coverage, which line counters cannot see.)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DOCS_TABLE = REPO / "docs" / "OBSERVABILITY.md"
#: The only places under src/ that may name ``EventKind``: the layers
#: that present to the user, the trace module itself, and the package
#: root, which re-exports it as public API.
TRACE_LAYERS = ("repro/core/", "repro/workstation/", "repro/audio/")
TRACE_MODULES = ("repro/trace.py", "repro/__init__.py")


# ----------------------------------------------------------------------
# fault-site coverage
# ----------------------------------------------------------------------


def collected_fault_test_ids() -> list[str]:
    """Test ids pytest collects for ``-m faults``."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            # Neutralize addopts: its `-q` would stack with ours into
            # `-qq`, which collapses ids into per-file counts.
            "-o",
            "addopts=",
            "-p",
            "no:cacheprovider",
            "--collect-only",
            "-q",
            "-m",
            "faults",
        ],
        capture_output=True,
        text=True,
    )
    # --collect-only exits 0 with a trailing summary line; anything
    # else (collection error, no tests) is already a failure.
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"fault test collection failed (exit {proc.returncode})")
    return [
        line
        for line in proc.stdout.splitlines()
        if "::" in line and not line.startswith(" ")
    ]


def check_faults() -> bool:
    from repro.faults.registry import registered_sites

    test_ids = collected_fault_test_ids()
    if not test_ids:
        sys.exit("no faults-marked tests collected")
    blob = "\n".join(test_ids)
    uncovered = [site for site in registered_sites() if site not in blob]
    if uncovered:
        print(f"collected {len(test_ids)} fault tests")
        print("registered fault sites with no covering test id:")
        for site in uncovered:
            print(f"  - {site}")
        print(
            "add the site to the sweeps in tests/test_faults.py "
            "(TestCrashSweep/TestTransientSweep parametrize over the "
            "registry, so a stale copy of the site list is the usual "
            "culprit)."
        )
        return False
    print(
        f"ok: {len(registered_sites())} registered fault sites covered "
        f"by {len(test_ids)} collected fault tests"
    )
    return True


# ----------------------------------------------------------------------
# trace-kind coverage
# ----------------------------------------------------------------------


def emitted_kind_names() -> set[str]:
    """``EventKind.<NAME>`` references in src/, excluding the enum itself."""
    pattern = re.compile(r"EventKind\.([A-Z_]+)")
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.name == "trace.py":
            continue
        names.update(pattern.findall(path.read_text()))
    return names


def off_surface_modules() -> list[str]:
    """src/ modules outside the presentation layers that name EventKind."""
    pattern = re.compile(r"\bEventKind\b")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in TRACE_MODULES or module.startswith(TRACE_LAYERS):
            continue
        if pattern.search(path.read_text()):
            offenders.append(module)
    return offenders


def documented_kind_names() -> set[str]:
    """Kinds listed in the docs/OBSERVABILITY.md event table."""
    if not DOCS_TABLE.exists():
        sys.exit(f"missing {DOCS_TABLE.relative_to(REPO)}")
    pattern = re.compile(r"`([A-Z_]+)`")
    return set(pattern.findall(DOCS_TABLE.read_text()))


def check_trace() -> bool:
    from repro.trace import EventKind

    kinds = [kind.name for kind in EventKind]
    emitted = emitted_kind_names()
    documented = documented_kind_names()
    ok = True

    unemitted = [name for name in kinds if name not in emitted]
    if unemitted:
        ok = False
        print("EventKind members never emitted from src/:")
        for name in unemitted:
            print(f"  - {name}")
        print(
            "emit the kind from the owning layer or retire it from "
            "repro/trace.py."
        )

    undocumented = [name for name in kinds if name not in documented]
    if undocumented:
        ok = False
        print("EventKind members missing from docs/OBSERVABILITY.md:")
        for name in undocumented:
            print(f"  - {name}")
        print("add them to the event-kind table in docs/OBSERVABILITY.md.")

    off_surface = off_surface_modules()
    if off_surface:
        ok = False
        print("EventKind named outside the presentation layers:")
        for module in off_surface:
            print(f"  - src/{module}")
        print(
            "the Trace holds only what reaches the screen and speaker; "
            "count layer-internal work in the layer's metrics and record "
            "its causality as spans."
        )

    if ok:
        print(
            f"ok: {len(kinds)} event kinds all emitted in src/ and "
            "documented in docs/OBSERVABILITY.md; EventKind named only "
            "in the presentation layers"
        )
    return ok


CHECKS = {"faults": check_faults, "trace": check_trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument(
        "--only",
        choices=sorted(CHECKS),
        help="run a single check instead of all of them",
    )
    args = parser.parse_args(argv)
    names = [args.only] if args.only else sorted(CHECKS)
    failed = [name for name in names if not CHECKS[name]()]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
