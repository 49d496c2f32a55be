"""Blocking stdlib client for the ``repro serve`` HTTP API.

Thin on purpose: ``http.client`` only, one connection per call (the
server speaks ``Connection: close``).  Returns parsed JSON documents;
:meth:`ServeClient.submit` returns ``(http_status, result_doc)`` so
callers — the bench load generator, the chaos suite, user scripts — can
react to 429/503 back-pressure without exception gymnastics.
"""

from __future__ import annotations

import http.client
import json
from typing import Optional

from ..errors import JaponicaError


class ServeClient:
    """Talk to a running compilation service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                doc = {"error": raw.decode("utf-8", "replace")}
            return response.status, doc
        finally:
            conn.close()

    # -- API --------------------------------------------------------------

    def submit(self, job: dict) -> tuple[int, dict]:
        """POST one job; returns ``(http_status, result_document)``."""
        return self._request("POST", "/v1/jobs", body=job)

    def health(self) -> dict:
        status, doc = self._request("GET", "/healthz")
        if status != 200:
            raise JaponicaError(f"unhealthy: HTTP {status}: {doc}")
        return doc

    def stats(self) -> dict:
        status, doc = self._request("GET", "/v1/stats")
        if status != 200:
            raise JaponicaError(f"stats failed: HTTP {status}: {doc}")
        return doc

    def metrics(self) -> dict:
        """The merged ``repro.servemetrics/v1`` JSON document."""
        status, doc = self._request("GET", "/v1/metrics?format=json")
        if status != 200:
            raise JaponicaError(f"metrics failed: HTTP {status}: {doc}")
        return doc

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/v1/metrics``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                raise JaponicaError(
                    f"metrics failed: HTTP {response.status}"
                )
            return raw.decode("utf-8")
        finally:
            conn.close()

    def trace(self, job_id: str) -> dict:
        """One traced job's Chrome-trace document."""
        status, doc = self._request("GET", f"/v1/trace/{job_id}")
        if status != 200:
            raise JaponicaError(
                f"trace failed: HTTP {status}: {doc.get('error', doc)}"
            )
        return doc

    def flight(self) -> Optional[dict]:
        """The latest flight dump, or None if no trigger has fired."""
        status, doc = self._request("GET", "/v1/flight")
        if status == 404:
            return None
        if status != 200:
            raise JaponicaError(f"flight failed: HTTP {status}: {doc}")
        return doc
