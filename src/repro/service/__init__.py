"""repro.service — a persistent, multi-tenant campaign orchestrator.

One long-lived :class:`CampaignService` owns a warm pool of worker
processes and serves many clients: campaigns are submitted into named
priority queues, tracked as jobs (submitted → queued → running →
done/failed), executed on whichever worker frees up, and cached in one
shared :class:`~repro.fleet.cache.ResultCache` so any client benefits
from any other client's completed work.  Workers heartbeat; a dead or
wedged worker's task is reclaimed, retried elsewhere, and the pool is
replenished — without changing results, because seeds derive from task
identity, never placement.

Layers:

* :mod:`repro.service.core` — the orchestrator (queues, dispatch,
  reclaim, coalescing) over :class:`~repro.fleet.pool.WorkerPool`, the
  one process pool, which ``repro sweep --jobs N`` also runs on; a dead
  worker costs only the attempt it held.
* :mod:`repro.service.transport` — a stdlib JSON-over-HTTP skin
  (``repro serve``).
* :mod:`repro.service.client` — a ``urllib`` client library
  (``repro submit/status/result/queues``).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CampaignService",
    "JobRecord",
    "results_document",
    "ServiceServer",
    "serve",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "DEFAULT_ENDPOINT",
    "SUBMITTED",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "JOB_STATES",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "client": ("DEFAULT_ENDPOINT", "ServiceClient", "ServiceError",
               "ServiceUnavailable"),
    "core": ("CampaignService",),
    "jobs": ("DONE", "FAILED", "JOB_STATES", "QUEUED", "RUNNING", "SUBMITTED",
             "JobRecord", "results_document"),
    "transport": ("ServiceServer", "serve"),
})
