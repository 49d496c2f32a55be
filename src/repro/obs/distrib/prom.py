"""Prometheus text exposition of a merged metrics registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` (the serve plane's
fold of its own and every worker's registry) as Prometheus text format
0.0.4 — the format ``GET /v1/metrics`` answers by default.
Deterministic by construction: families and labels are sorted, and
every value comes from the registry's sorted :meth:`to_dict` view, whose
histogram buckets and quantiles are ``Histogram.bucket_pairs()`` and
``Histogram.quantile()``.

Naming: dots become underscores under a ``repro_`` prefix, so the
``serve.wall_ms`` histogram exports as ``repro_serve_wall_ms``.  The
per-tenant convention ``serve.tenant.<tenant>.<rest>`` is recognized and
exported as ``repro_serve_tenant_<rest>{tenant="<tenant>"}`` — one
family with a tenant label, not one family per tenant.
"""

from __future__ import annotations

import re

_TENANT_RE = re.compile(r"^serve\.tenant\.(?P<tenant>.+)\.(?P<rest>[^.]+)$")


def _sanitize(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _family(name: str) -> tuple[str, str]:
    """Split one flat metric name into (family, label-string)."""
    m = _TENANT_RE.match(name)
    if m:
        fam = _sanitize(f"serve.tenant.{m.group('rest')}")
        return fam, f'tenant="{_escape(m.group("tenant"))}"'
    return _sanitize(name), ""


def _line(fam: str, labels: str, value, suffix: str = "") -> str:
    label_part = "{" + labels + "}" if labels else ""
    if isinstance(value, float) and value == int(value):
        value = int(value)
    return f"{fam}{suffix}{label_part} {value}"


def render_prometheus(registry) -> str:
    """The registry as Prometheus text (trailing newline included)."""
    doc = registry.to_dict()
    lines: list[str] = []
    families_seen: set[str] = set()

    def header(fam: str, kind: str) -> None:
        if fam not in families_seen:
            families_seen.add(fam)
            lines.append(f"# TYPE {fam} {kind}")

    for section, kind in (("counters", "counter"), ("gauges", "gauge")):
        for name, value in doc[section].items():
            fam, labels = _family(name)
            header(fam, kind)
            lines.append(_line(fam, labels, value))

    # group histograms by family first: tenant-labelled series share one
    # family, and all samples of a family must stay contiguous
    groups: dict[str, list[tuple[str, dict]]] = {}
    for name, h in doc["histograms"].items():
        fam, labels = _family(name)
        groups.setdefault(fam, []).append((labels, h))

    for fam in sorted(groups):
        header(fam, "histogram")
        for labels, h in groups[fam]:
            cum = 0
            for le, n in h["buckets"]:
                cum += n
                le_txt = "+Inf" if le == "+Inf" else repr(float(le))
                bucket_labels = ", ".join(
                    x for x in (labels, f'le="{le_txt}"') if x
                )
                lines.append(
                    _line(fam, bucket_labels, cum, suffix="_bucket")
                )
            if not h["buckets"] or h["buckets"][-1][0] != "+Inf":
                bucket_labels = ", ".join(
                    x for x in (labels, 'le="+Inf"') if x
                )
                lines.append(
                    _line(fam, bucket_labels, cum, suffix="_bucket")
                )
            lines.append(_line(fam, labels, h["count"], suffix="_count"))
            lines.append(_line(fam, labels, h["sum"], suffix="_sum"))

    for fam in sorted(groups):
        for tag in ("p50", "p95", "p99"):
            qfam = f"{fam}_{tag}"
            header(qfam, "gauge")
            for labels, h in groups[fam]:
                lines.append(_line(qfam, labels, h[tag]))

    return "\n".join(lines) + "\n"
