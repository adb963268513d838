"""Campaign service: HTTP daemon + sharded multi-worker job queue.

Turns the repo's streaming campaign engine into a long-running service:
``repro serve`` starts an HTTP daemon (:mod:`repro.service.daemon`, pure
stdlib) whose :class:`~repro.service.jobs.Coordinator` shards each
submitted :class:`~repro.experiments.spec.CampaignSpec` across a warm
pool of worker processes (each started once per daemon) writing one
shared artifact store.  Content-addressed, persist-before-yield resume
makes the workers disposable: kill any one mid-shard and another worker
resumes its shard from the store, with final keys + record digests
bit-identical to a single-process run.
:class:`~repro.service.client.ServiceClient` is the matching stdlib
client, and ``repro submit / status / results / cancel`` drive it from
the command line.
"""

from repro.service.client import ServiceClient, default_url
from repro.service.daemon import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    make_server,
    run_daemon,
)
from repro.service.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Coordinator,
    ServiceError,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Coordinator",
    "ServiceError",
    "ServiceClient",
    "default_url",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "make_server",
    "run_daemon",
]
