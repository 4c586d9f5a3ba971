"""Pluggable storage backends for the content-addressed stores.

``repro.cache.backends`` holds the backend implementations (local
append-only segments, shared HTTP remote, tiered read-through) consumed by
:class:`repro.analysis.store.ContentStore`; ``repro.cache.server`` is the
matching stdlib cache server behind the ``cache-server`` CLI subcommand.
"""

from repro.cache.backends import (
    ENV_READONLY,
    ENV_REMOTE_URL,
    LocalBackend,
    RemoteBackend,
    TieredBackend,
    env_flag,
    remote_url_from_env,
)

__all__ = [
    "ENV_READONLY",
    "ENV_REMOTE_URL",
    "LocalBackend",
    "RemoteBackend",
    "TieredBackend",
    "env_flag",
    "remote_url_from_env",
]
