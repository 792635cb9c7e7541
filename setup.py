"""Setuptools entry point for the FARe reproduction.

The library is a plain ``src``-layout package with a single hard runtime
dependency (numpy).  Most workflows never install it — the repository is
designed to run in place with ``PYTHONPATH=src`` (see README.md) — but
``pip install -e .`` works for users who want ``import repro`` available
everywhere.  The test extra mirrors what the suites under ``tests/`` and
``benchmarks/`` import.
"""

from setuptools import find_packages, setup

setup(
    name="fare-repro",
    version="1.0.0",
    description=(
        "Reproduction of FARe: fault-aware training of GNNs on "
        "ReRAM-based PIM accelerators (DATE 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0"],  # np.bitwise_count
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            "scipy",  # cross-checks the from-scratch solvers
        ],
    },
)
