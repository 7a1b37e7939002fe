"""Setuptools entry point.

Kept as a ``setup.py`` (rather than pyproject-only) so offline
environments without ``wheel`` can still do
``pip install -e . --no-use-pep517 --no-build-isolation``, which falls
back to ``setup.py develop``.
"""

from setuptools import find_packages, setup

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
    },
    entry_points={
        "console_scripts": [
            "voodb = repro.__main__:main",
        ],
    },
)
