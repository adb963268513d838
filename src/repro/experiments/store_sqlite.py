"""The artifact store's former SQLite-backend name.

:class:`~repro.experiments.store.ArtifactStore` is the one store engine,
a WAL-mode SQLite database; ``SqliteStoreBackend`` is the same class
object under the name the SQLite backend had when it was one of two.  It
stays only while ``perfbench/spans.py`` imports it.
"""

from repro.experiments.store import ArtifactStore

SqliteStoreBackend = ArtifactStore

__all__ = ["SqliteStoreBackend"]
