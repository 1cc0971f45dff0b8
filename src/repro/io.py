"""Persistence: save/load system models and request traces.

Models serialise to JSON (they are small: specs + reference lists);
traces serialise to ``.npz`` (they are large flat arrays).  Both formats
are versioned so files survive library evolution, and loading validates
through the normal constructors — a corrupted file fails loudly, not
with NaNs downstream.

Typical uses: pinning a generated workload for cross-machine
reproducibility, or handing a colleague the exact universe behind a
plot.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

import numpy as np

from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    StreamTopology,
    SystemModel,
)
from repro.workload.trace import RequestTrace

__all__ = ["save_model", "load_model", "save_trace", "load_trace"]

_MODEL_FORMAT = "repro-model-v1"
_TRACE_FORMAT = "repro-trace-v1"


def _enc_float(x: float) -> Any:
    """JSON has no Infinity; encode it portably."""
    if math.isinf(x):
        return "inf"
    return x


def _dec_float(x: Any) -> float:
    if x == "inf":
        return math.inf
    return float(x)


def save_model(model: SystemModel, path: str | pathlib.Path) -> None:
    """Write ``model`` to ``path`` as versioned JSON."""
    doc = {
        "format": _MODEL_FORMAT,
        "repository": {
            "processing_capacity": _enc_float(
                model.repository.processing_capacity
            )
        },
        "servers": [
            {
                "server_id": s.server_id,
                "name": s.name,
                "storage_capacity": _enc_float(s.storage_capacity),
                "processing_capacity": _enc_float(s.processing_capacity),
                "rate": s.rate,
                "overhead": s.overhead,
                "repo_rate": s.repo_rate,
                "repo_overhead": s.repo_overhead,
            }
            for s in model.servers
        ],
        # remote streams per server, the repository first (k-1 columns)
        "streams": {
            "rates": model.stream_rates.tolist(),
            "overheads": model.stream_overheads.tolist(),
        },
        "objects": [o.size for o in model.objects],
        "pages": [
            {
                "server": p.server,
                "html_size": p.html_size,
                "frequency": p.frequency,
                "compulsory": list(p.compulsory),
                "optional": list(p.optional),
                "optional_prob": p.optional_prob,
                "optional_rate_scale": p.optional_rate_scale,
            }
            for p in model.pages
        ],
    }
    pathlib.Path(path).write_text(json.dumps(doc))


def load_model(path: str | pathlib.Path) -> SystemModel:
    """Read a model written by :func:`save_model`.

    A document without the ``streams`` block (written before model files
    kept the stream topology) loads as the paper's two-stream model.

    Raises
    ------
    ValueError
        If the file is not a v1 model document (or fails the
        :class:`SystemModel` constructors' validation).
    """
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("format") != _MODEL_FORMAT:
        raise ValueError(
            f"{path} is not a {_MODEL_FORMAT} document "
            f"(found format={doc.get('format')!r})"
        )
    servers = [
        ServerSpec(
            server_id=s["server_id"],
            name=s.get("name", ""),
            storage_capacity=_dec_float(s["storage_capacity"]),
            processing_capacity=_dec_float(s["processing_capacity"]),
            rate=float(s["rate"]),
            overhead=float(s["overhead"]),
            repo_rate=float(s["repo_rate"]),
            repo_overhead=float(s["repo_overhead"]),
        )
        for s in doc["servers"]
    ]
    objects = [
        ObjectSpec(object_id=k, size=int(size))
        for k, size in enumerate(doc["objects"])
    ]
    pages = [
        PageSpec(
            page_id=j,
            server=int(p["server"]),
            html_size=int(p["html_size"]),
            frequency=float(p["frequency"]),
            compulsory=tuple(int(k) for k in p["compulsory"]),
            optional=tuple(int(k) for k in p["optional"]),
            optional_prob=float(p["optional_prob"]),
            optional_rate_scale=float(p.get("optional_rate_scale", 1.0)),
        )
        for j, p in enumerate(doc["pages"])
    ]
    repository = RepositorySpec(
        processing_capacity=_dec_float(doc["repository"]["processing_capacity"])
    )
    streams = doc.get("streams")
    topology = None
    if streams is not None:
        topology = StreamTopology(
            rates=np.array(streams["rates"], dtype=np.float64),
            overheads=np.array(streams["overheads"], dtype=np.float64),
        )
    return SystemModel(servers, repository, pages, objects, topology)


def save_trace(trace: RequestTrace, path: str | pathlib.Path) -> None:
    """Write a trace's arrays to ``path`` as compressed ``.npz``.

    The model itself is *not* embedded — pass it to :func:`load_trace`
    (traces are bound to a model instance; a content fingerprint guards
    against reattaching to the wrong universe).
    """
    np.savez_compressed(
        path,
        format=np.array(_TRACE_FORMAT),
        page_of_request=trace.page_of_request,
        opt_entries=trace.opt_entries,
        opt_owner=trace.opt_owner,
        model_fingerprint=np.array(_model_fingerprint(trace.model)),
    )


def _model_fingerprint(model: SystemModel) -> str:
    """Cheap structural fingerprint to pair traces with their model."""
    return (
        f"{model.n_servers}/{model.n_pages}/{model.n_objects}/"
        f"{int(model.sizes.sum())}/{int(model.comp_objects.sum())}"
    )


def load_trace(path: str | pathlib.Path, model: SystemModel) -> RequestTrace:
    """Read a trace written by :func:`save_trace` and bind it to ``model``.

    Raises
    ------
    ValueError
        On format mismatch or when ``model`` does not match the
        fingerprint recorded at save time.
    """
    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != _TRACE_FORMAT:
            raise ValueError(
                f"{path} is not a {_TRACE_FORMAT} archive "
                f"(found {data['format']})"
            )
        fingerprint = str(data["model_fingerprint"])
        if fingerprint != _model_fingerprint(model):
            raise ValueError(
                "trace was recorded against a different model "
                f"(fingerprint {fingerprint}, model "
                f"{_model_fingerprint(model)})"
            )
        page_of_request = data["page_of_request"].astype(np.intp)
        trace = RequestTrace(
            model=model,
            page_of_request=page_of_request,
            server_of_request=model.page_server[page_of_request].astype(np.intp),
            opt_entries=data["opt_entries"].astype(np.intp),
            opt_owner=data["opt_owner"].astype(np.intp),
        )
    trace.validate()
    return trace
