"""Setup script for the SCAL reproduction package.

A classic setup.py (rather than a PEP 517 pyproject build) so that
``pip install -e .`` works in fully offline environments: the legacy
editable path needs neither network access nor the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Self-Checking Alternating Logic (SCAL): reproduction of "
        "Woodard & Metze, ISCA 1978"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    author="SCAL reproduction authors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    keywords=[
        "self-checking",
        "alternating-logic",
        "fault-tolerance",
        "logic-simulation",
        "stuck-at-faults",
    ],
)
