"""Pluggable temporal-graph storage engines.

:class:`~repro.storage.base.GraphStorage` defines the index/query contract
:class:`~repro.core.temporal_graph.TemporalGraph` delegates to; concrete
backends register themselves here under a short name:

* ``"list"`` — :class:`~repro.storage.list_backend.ListStorage`, the
  original dict-of-lists representation (default, reference semantics);
* ``"columnar"`` — :class:`~repro.storage.columnar.ColumnarStorage`, flat
  ``array('q')``/``array('d')`` columns with CSR offsets: faster to build,
  lighter in memory, same answers;
* ``"numpy"`` — :class:`~repro.storage.numpy_backend.NumpyStorage`,
  contiguous ``ndarray`` columns with lazy CSR indices: the block lane's
  arrays, zero-copy time slices, and memory-mapped persistence
  (:meth:`~repro.storage.numpy_backend.NumpyStorage.save` /
  :meth:`~repro.storage.numpy_backend.NumpyStorage.load` over an
  ``.npy`` page directory).  Registered only when NumPy is importable.
* ``"partitioned"`` — :class:`~repro.storage.partitioned.PartitionedStorage`,
  the out-of-core engine: one flat page set per time interval under a
  top-level ``manifest.json``, partitions opened lazily (``mmap_mode="r"``)
  with an LRU-bounded resident set, and censuses routed through the
  sharded engine so peak memory follows the largest δ-overlapped shard
  rather than the stream.  Registered only when NumPy is importable.

The two column stores, ``"columnar"`` and ``"numpy"``, subclass the
NumPy-free core :class:`~repro.storage.columns.ColumnStore`, which holds
their append tail, views and window queries once.

Selection order: an explicit ``backend=`` argument wins, then the
``REPRO_STORAGE`` environment variable (``REPRO_STORAGE=numpy`` turns the
tensor engine on globally), then :data:`DEFAULT_BACKEND`.

Adding a backend is three steps: subclass ``GraphStorage`` (implement the
abstract constructors/queries; the base class supplies generic slices,
coarsening and batch ``update``), or ``ColumnStore`` for a column store
(supply the columns, the two CSR accessors and ``compact``; the core
answers the queries); call :func:`register_backend`; and run
the parity suite in ``tests/test_storage.py`` — it holds every registered
backend to answer-identical behavior against ``ListStorage``.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.core.events import Event
from repro.storage.base import GraphStorage
from repro.storage.columnar import ColumnarStorage
from repro.storage.list_backend import ListStorage
from repro.storage.numpy_backend import NumpyStorage
from repro.storage import numpy_backend as _numpy_backend
from repro.storage.partitioned import PartitionedStorage, write_partitioned

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_STORAGE"

#: Backend used when neither an argument nor the environment chooses one.
DEFAULT_BACKEND = "list"

_BACKENDS: dict[str, type[GraphStorage]] = {}


def register_backend(name: str, cls: type[GraphStorage]) -> None:
    """Register a storage engine class under ``name`` (overwrites)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _BACKENDS[name] = cls


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str | None = None) -> type[GraphStorage]:
    """Resolve a backend class from a name, the environment, or the default."""
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown storage backend {name!r}; available: {known} "
            f"(set via backend= or the {ENV_VAR} environment variable)"
        ) from None


def make_storage(
    events: Iterable[Event],
    *,
    backend: str | None = None,
    presorted: bool = False,
) -> GraphStorage:
    """Build a storage engine of the selected backend from events."""
    return get_backend(backend).from_events(events, presorted=presorted)


register_backend(ListStorage.backend_name, ListStorage)
register_backend(ColumnarStorage.backend_name, ColumnarStorage)
if _numpy_backend.available():
    register_backend(NumpyStorage.backend_name, NumpyStorage)
    register_backend(PartitionedStorage.backend_name, PartitionedStorage)

__all__ = [
    "ColumnarStorage",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "GraphStorage",
    "ListStorage",
    "NumpyStorage",
    "PartitionedStorage",
    "write_partitioned",
    "available_backends",
    "get_backend",
    "make_storage",
    "register_backend",
]
