"""Setup shim for environments without PEP 660 editable-install support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Discriminative frequent pattern analysis for effective "
        "classification (ICDE 2007 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6", "scipy>=1.9"],
        "graphs": ["networkx>=2.5"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
