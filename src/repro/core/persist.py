"""Behavior-model persistence: store baselines, diff against them later.

The paper's workflow keeps a "previously computed, stable, and correct"
model around to diff new behavior against (Section I). Recomputing it from
the raw log every time is wasteful and, worse, requires keeping the raw
log; this module serializes a :class:`~repro.core.model.BehaviorModel` to
JSON so the *model* is the retained artifact.

A signature holds exactly what is written here — the content diffing
needs (edges, counts, peaks, first-pairing means/SEs, moments), never raw
delay/byte samples — so a reloaded model equals the one that was saved.
Sample-level CDFs (Figure 9) are computed from the log; keep it too if you
need those.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.model import BehaviorModel
from repro.core.signatures.application import ApplicationSignature
from repro.core.signatures.base import SignatureKind
from repro.core.signatures.infrastructure import InfrastructureSignature

if TYPE_CHECKING:
    from repro.core.flowdiff import FlowDiffConfig

FORMAT_VERSION = 1

#: Version of the streaming-service checkpoint envelope (the per-tenant
#: resume state written by :mod:`repro.service`). Independent of the
#: model :data:`FORMAT_VERSION`: the envelope only *references* models by
#: content digest, so either format can evolve without invalidating the
#: other's artifacts.
CHECKPOINT_FORMAT_VERSION = 1


class ModelLoadError(ValueError):
    """A persisted model could not be decoded.

    Raised (instead of the opaque ``KeyError``/``TypeError`` the raw
    decoders would surface) when a model file is truncated, corrupt, or
    written by an incompatible format version. ``path`` names the
    offending file when the model came from disk.
    """

    def __init__(self, reason: str, path: Optional[str] = None) -> None:
        self.reason = reason
        self.path = path
        where = f"{path}: " if path else ""
        super().__init__(f"{where}{reason}")


# ----------------------------------------------------------------------
# Encoding / decoding
#
# The per-signature JSON formats are owned by the signature classes
# themselves (``to_dict``/``from_dict`` — the contract every
# :class:`~repro.core.signatures.base.Signature` subclass implements);
# this module only frames them with version/window/stability metadata.
# ----------------------------------------------------------------------


def model_to_dict(model: BehaviorModel) -> Dict[str, Any]:
    """Encode a behavior model as a JSON-able dict."""
    return {
        "version": FORMAT_VERSION,
        "window": list(model.window),
        "stability": [
            [key, kind.value, verdict]
            for (key, kind), verdict in sorted(model.stability.items())
        ],
        "app_signatures": {
            key: sig.to_dict() for key, sig in model.app_signatures.items()
        },
        "infrastructure": model.infrastructure.to_dict(),
    }


def model_from_dict(data: Dict[str, Any], source: Optional[str] = None) -> BehaviorModel:
    """Decode a behavior model.

    The payload is validated up front — wrong top-level shape, missing
    sections, or a version skew raise a :class:`ModelLoadError` naming
    ``source`` (the file the dict came from, when known) instead of an
    opaque ``KeyError``/``TypeError`` from deep inside the decoders.

    Raises:
        ModelLoadError: on any malformed or version-skewed payload.
    """
    if not isinstance(data, dict):
        raise ModelLoadError(
            f"model payload must be a JSON object, got {type(data).__name__}",
            source,
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ModelLoadError(
            f"unsupported model format version {version!r} "
            f"(expected {FORMAT_VERSION})",
            source,
        )
    for section, kind in (
        ("window", list),
        ("app_signatures", dict),
        ("infrastructure", dict),
    ):
        if section not in data:
            raise ModelLoadError(f"missing required section {section!r}", source)
        if not isinstance(data[section], kind):
            raise ModelLoadError(
                f"section {section!r} must be a {kind.__name__}, "
                f"got {type(data[section]).__name__}",
                source,
            )
    if len(data["window"]) != 2:
        raise ModelLoadError(
            f"window must have 2 bounds, got {len(data['window'])}", source
        )
    try:
        return BehaviorModel(
            app_signatures={
                key: ApplicationSignature.from_dict(sig)
                for key, sig in data["app_signatures"].items()
            },
            infrastructure=InfrastructureSignature.from_dict(
                data["infrastructure"]
            ),
            window=tuple(data["window"]),
            stability={
                (key, SignatureKind(kind)): verdict
                for key, kind, verdict in data.get("stability", [])
            },
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, ModelLoadError):
            raise
        raise ModelLoadError(
            f"truncated or corrupt model payload ({type(exc).__name__}: {exc})",
            source,
        ) from exc


def save_model(model: BehaviorModel, path: str) -> None:
    """Write a behavior model to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path: str) -> BehaviorModel:
    """Read a behavior model from a JSON file.

    Raises:
        ModelLoadError: when the file is not valid JSON or does not
            decode to a supported model payload; the error names ``path``.
        OSError: when the file cannot be read at all.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelLoadError(f"invalid JSON ({exc})", path) from exc
    return model_from_dict(data, source=path)


# ----------------------------------------------------------------------
# Fingerprints and digest-named model objects
# ----------------------------------------------------------------------


def config_fingerprint(config: "FlowDiffConfig") -> str:
    """SHA-256 fingerprint of a config's *model-relevant* fields.

    Only knobs that change the produced model participate: the signature
    construction parameters, the stability thresholds, and the interval
    count. ``jobs`` and the diff-phase knobs (compare thresholds, task
    explanations) are deliberately excluded — changing them must not
    invalidate a stored baseline.
    """
    sig = config.signature
    st = config.stability
    payload = {
        "signature": {
            "epoch": sig.epoch,
            "dd_window": sig.dd_window,
            "dd_bin_width": sig.dd_bin_width,
            "occurrence_gap": sig.occurrence_gap,
            "special_nodes": sorted(sig.special_nodes),
        },
        "stability": {
            "cg": st.cg,
            "fs": st.fs,
            "ci": st.ci,
            "dd": st.dd,
            "pc": st.pc,
        },
        "stability_parts": config.stability_parts,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def model_digest(model: BehaviorModel) -> str:
    """SHA-256 content digest of a model's canonical JSON encoding.

    Two models that :func:`model_to_dict` identically share a digest, so
    storing by digest dedups naturally (a restart that re-learns the same
    baseline writes the same object).
    """
    return hashlib.sha256(
        json.dumps(model_to_dict(model), sort_keys=True).encode("utf-8")
    ).hexdigest()


def model_object_path(root: str, digest: str) -> str:
    """Where the model with content digest ``digest`` lives under ``root``."""
    return os.path.join(root, f"{digest}.model.json")


def store_model_object(root: str, model: BehaviorModel) -> str:
    """Store a model under its own content digest; return the digest.

    The streaming service checkpoints reference baseline models this
    way: the envelope carries only the digest, the bytes live beside it,
    and re-storing an identical model overwrites the same object. The
    write is write-then-rename, so a crash mid-write leaves no
    half-written object under the digest's name.
    """
    digest = model_digest(model)
    path = model_object_path(root, digest)
    os.makedirs(root, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        save_model(model, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return digest


def load_model_object(root: str, digest: str) -> Optional[BehaviorModel]:
    """The model stored under ``digest``, or None when absent/unreadable."""
    path = model_object_path(root, digest)
    if not os.path.exists(path):
        return None
    try:
        return load_model(path)
    except (ModelLoadError, OSError) as exc:
        warnings.warn(
            f"ignoring unreadable stored model {path}: {exc}", stacklevel=2
        )
        return None


# ----------------------------------------------------------------------
# Streaming-service checkpoints
# ----------------------------------------------------------------------


def save_checkpoint(path: str, state: Dict[str, Any]) -> None:
    """Atomically write a checkpoint envelope (version frame added here).

    ``state`` is the caller's resume payload — for the streaming service,
    the tenant cursor, window geometry, counters, and the baseline model
    digest (the model bytes themselves live beside it, written by
    :func:`store_model_object`). The write is write-then-rename like the
    object's, so a crash mid-write leaves the previous checkpoint intact.
    """
    payload = dict(state)
    payload["version"] = CHECKPOINT_FORMAT_VERSION
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a checkpoint envelope written by :func:`save_checkpoint`.

    Raises:
        ModelLoadError: when the file is not valid JSON, not an object,
            or carries an unsupported envelope version.
        OSError: when the file cannot be read at all.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelLoadError(f"invalid JSON ({exc})", path) from exc
    if not isinstance(data, dict):
        raise ModelLoadError(
            f"checkpoint payload must be a JSON object, "
            f"got {type(data).__name__}",
            path,
        )
    version = data.get("version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ModelLoadError(
            f"unsupported checkpoint format version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})",
            path,
        )
    return data
