"""repro — reproduction of *The Cost of Serializability on Platforms That
Use Snapshot Isolation* (Alomari, Cahill, Fekete, Röhm; ICDE 2008).

The package contains everything the paper's evaluation rests on, built from
scratch:

* :mod:`repro.engine` — an in-memory MVCC engine with Snapshot Isolation
  (first-updater-wins and first-committer-wins), both platform flavours of
  ``SELECT FOR UPDATE``, strict 2PL, and an SSI certifier extension.
* :mod:`repro.core` — the Static Dependency Graph theory: conflict and
  vulnerability analysis, dangerous-structure detection, and the
  materialization / promotion program transformations.
* :mod:`repro.analysis` — dynamic serializability checking via
  multi-version serialization graphs, anomaly classification, and a bounded
  interleaving explorer.
* :mod:`repro.smallbank` — the SmallBank benchmark (schema, the five
  programs, and all modification strategies from the paper).
* :mod:`repro.workload` / :mod:`repro.sim` — the closed-system test driver,
  both threaded (real concurrency) and on a deterministic discrete-event
  simulation of the paper's hardware platforms.
* :mod:`repro.bench` — one experiment per paper table and figure.

Start with ``examples/quickstart.py`` or ``python -m repro.bench list``.

The blessed client surface (DESIGN.md §11) is re-exported here::

    import repro

    conn = repro.connect("local://", schemas=..., isolation="si")
    with conn.transaction("deposit") as txn:
        ...

Re-exports resolve lazily (PEP 562) so ``import repro`` stays free of the
workload/observability machinery until it is actually used.
"""

__version__ = "1.1.0"

#: name -> defining module, resolved on first attribute access.
_EXPORTS = {
    "connect": "repro.api",
    "Connection": "repro.api",
    "LocalConnection": "repro.api",
    "TransactionContext": "repro.api",
    "SessionLike": "repro.api",
    "ISOLATION_CONFIGS": "repro.api",
    "NetworkConnection": "repro.net.client",
    "DatabaseServer": "repro.net.server",
    "ReproError": "repro.errors",
    "ERROR_CODES": "repro.errors",
    "error_from_code": "repro.errors",
    "RetryPolicy": "repro.workload.retry",
    "Observability": "repro.obs",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def _lazy_exports(namespace: dict, exports: "dict[str, str]"):
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` over ``exports``
    (name -> module): each name is imported on first use and cached in
    ``namespace``, so ``__getattr__`` fires at most once per name."""

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        import importlib

        value = namespace[name] = getattr(
            importlib.import_module(module_name), name
        )
        return value

    def __dir__() -> "list[str]":
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
