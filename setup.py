"""Setuptools entry point.

Kept as a ``setup.py`` (rather than pyproject-only) so offline
environments without ``wheel`` can still do
``pip install -e . --no-use-pep517 --no-build-isolation``, which falls
back to ``setup.py develop``.

Compiled kernel (opt-in)
------------------------
With ``VOODB_MYPYC=1`` in the environment at build time, the four despy
hot modules (``events``, ``process``, ``resource``, ``engine``) are
copied into ``src/repro/_despy_compiled/`` — intra-unit imports
rewritten to the new package — and compiled with mypyc::

    pip install -e .[compiled]          # pulls in mypy (which ships mypyc)
    VOODB_MYPYC=1 pip install -e .[compiled] --no-build-isolation

The pure-Python modules under ``repro.despy`` stay untouched and remain
the default; setting ``VOODB_COMPILED=1`` at *run* time makes
``repro.despy`` alias the compiled modules in (see its ``__init__``),
and it falls back cleanly when no compiled artifacts exist.  Building
without mypy installed, or without ``VOODB_MYPYC=1``, produces the
ordinary pure-Python package.
"""

import os
import re
from pathlib import Path

from setuptools import find_packages, setup

#: The despy hot modules compiled as one mypyc unit, in import order.
_COMPILED_MODULES = ("events", "process", "resource", "engine")


def _generate_compiled_package() -> list:
    """Copy the hot modules into repro._despy_compiled and return paths.

    The copies have their intra-unit imports rewritten
    (``repro.despy.events`` -> ``repro._despy_compiled.events`` etc.) so
    the compiled unit is self-consistent; imports of the pure support
    modules (errors, timebase, monitor, randomstream) are left alone.
    """
    root = Path(__file__).resolve().parent
    source = root / "src" / "repro" / "despy"
    target = root / "src" / "repro" / "_despy_compiled"
    target.mkdir(exist_ok=True)
    pattern = re.compile(
        r"\brepro\.despy\.(" + "|".join(_COMPILED_MODULES) + r")\b"
    )
    paths = []
    for name in _COMPILED_MODULES:
        text = (source / f"{name}.py").read_text(encoding="utf-8")
        text = pattern.sub(r"repro._despy_compiled.\1", text)
        out = target / f"{name}.py"
        out.write_text(text, encoding="utf-8")
        paths.append(str(out))
    (target / "__init__.py").write_text(
        '"""mypyc-compiled despy kernel modules (generated by setup.py;\n'
        "see the VOODB_MYPYC build switch).  Do not edit — regenerate\n"
        'from repro/despy instead."""\n\n'
        + "".join(
            f"from repro._despy_compiled import {name}\n"
            for name in _COMPILED_MODULES
        ),
        encoding="utf-8",
    )
    return paths


ext_modules = []
if os.environ.get("VOODB_MYPYC", "").strip().lower() in ("1", "true", "yes"):
    from mypyc.build import mypycify  # needs the [compiled] extra

    ext_modules = mypycify(
        _generate_compiled_package(),
        opt_level="3",
        strip_asserts=False,
    )

setup(
    name="voodb-repro",
    version="0.1.0",
    description=(
        "Reproduction of VOODB: a generic discrete-event random simulation "
        "model to evaluate the performances of OODBs (VLDB 1999)"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The built-in scenario catalog ships as data: declarative YAML
    # files loaded at import time by repro.scenarios.builtin.
    package_data={"repro.scenarios": ["library/*.yaml"]},
    python_requires=">=3.10",
    install_requires=["PyYAML"],
    extras_require={
        # scipy is the test oracle for despy.stats.student_t_quantile only.
        "dev": ["pytest", "hypothesis", "pytest-benchmark", "scipy"],
        "compiled": ["mypy>=1.8"],
    },
    ext_modules=ext_modules,
    entry_points={
        "console_scripts": [
            "voodb = repro.__main__:main",
        ],
    },
)
