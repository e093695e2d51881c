"""Setuptools configuration for the ``repro`` package.

Metadata is kept here (rather than in ``pyproject.toml``) so legacy editable
installs (``pip install -e . --no-use-pep517``) work on machines without the
``wheel`` package or network access.  The ``repro`` console script is the
unified reproduction CLI (:mod:`repro.cli`), also reachable as
``python -m repro`` straight from a source checkout.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    """Read ``__version__`` out of the package without importing it."""
    init = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src", "repro", "__init__.py")
    with open(init, "r", encoding="utf-8") as fh:
        match = re.search(r"^__version__\s*=\s*[\"']([^\"']+)[\"']", fh.read(), re.M)
    return match.group(1) if match else "0.0.0"


setup(
    name="repro-appfit",
    version=_version(),
    description=(
        "Reproduction of Subasi et al., 'A Runtime Heuristic to Selectively "
        "Replicate Tasks for Application-Specific Reliability Targets' "
        "(IEEE CLUSTER 2016)"
    ),
    long_description=open("README.md", encoding="utf-8").read()
    if os.path.exists("README.md")
    else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The C simulator kernel ships as source and is compiled on demand into
    # $REPRO_KERNEL_CACHE (see repro.simulator.backend).
    package_data={"repro.simulator": ["_simkernel.c"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
