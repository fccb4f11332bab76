"""Distribution metadata.

Kept in setup.py (rather than pyproject's ``[project]`` table) so
``python setup.py develop`` works in fully offline environments without
the ``wheel`` package; pyproject.toml carries only the build backend and
lint configuration.

NumPy is an optional accelerator (``pip install -e '.[numpy]'``): it
unlocks the ``"numpy"`` mmap page storage backend, vectorizes the
columnar backend's construction, and speeds the statistics/shuffle
modules, while the core motif models run on the pure-Python paths
without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro-temporal-motifs",
    version="0.3.0",
    description=(
        "Reproduction of ICDE'22 temporal-motif model comparison: four motif "
        "models, null-model experiments, pluggable storage engines, and a "
        "sharded parallel census engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "numpy": ["numpy>=1.22"],
    },
)
