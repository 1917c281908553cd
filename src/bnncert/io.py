"""JSON serialization for posteriors, specifications and certificates.

Arrays round-trip bit-exactly: floats are written with repr precision via
Python's json module, which preserves IEEE doubles. All flat arrays use the
canonical weight ordering defined by Network.param_slices.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .certify import Certificate
from .net import LayerSpec, Network, ShapeError
from .posterior import GaussianPosterior, Posterior, SamplePosterior
from .spec import OutputSpec, argmax_spec, linf_ball


class FileFormatError(ValueError):
    """Raised when an input file parses as JSON but violates the schema."""


def _arr(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def network_to_dict(net: Network) -> dict:
    return {"layers": [{"rows": l.rows, "cols": l.cols,
                        "activation": l.activation, "has_bias": l.has_bias}
                       for l in net.layers]}


def network_from_dict(d: dict) -> Network:
    try:
        layers = tuple(LayerSpec(rows=int(l["rows"]), cols=int(l["cols"]),
                                 activation=str(l["activation"]),
                                 has_bias=bool(l.get("has_bias", True)))
                       for l in d["layers"])
        return Network(layers=layers)
    except (KeyError, TypeError) as e:
        raise FileFormatError(f"bad network schema: {e}") from e


def read_json(path, kind: str):
    """Parse a JSON file; an unreadable, non-UTF-8 or malformed ``kind``
    file raises FileFormatError, a missing one FileNotFoundError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as e:
        raise FileFormatError(f"cannot parse {kind} file {path}: {e}") from e


def save_posterior(path, net: Network, posterior: Posterior) -> None:
    doc = {"arch": network_to_dict(net)}
    if isinstance(posterior, GaussianPosterior):
        doc.update(kind="gaussian", mean=_arr(posterior.mean),
                   variance=_arr(posterior.variance))
    else:
        doc.update(kind="samples", samples=_arr(posterior.samples),
                   weights=_arr(posterior.weights),
                   metadata=posterior.metadata)
    Path(path).write_text(json.dumps(doc))


def load_posterior(path) -> tuple[Network, Posterior]:
    doc = read_json(path, "posterior")
    try:
        net = network_from_dict(doc["arch"])
        kind = doc["kind"]
        if kind == "gaussian":
            post = GaussianPosterior(mean=np.array(doc["mean"], dtype=float),
                                     variance=np.array(doc["variance"], dtype=float))
        elif kind == "samples":
            post = SamplePosterior(samples=np.array(doc["samples"], dtype=float),
                                   weights=np.array(doc["weights"], dtype=float),
                                   metadata=doc.get("metadata", {}))
        else:
            raise FileFormatError(f"unknown posterior kind {kind!r}")
    except KeyError as e:
        raise FileFormatError(f"posterior file {path} missing field {e}") from e
    except (ShapeError, FileFormatError):
        raise
    except (TypeError, ValueError) as e:
        raise FileFormatError(f"bad posterior in {path}: {e}") from e
    if post.n_weights != net.n_weights:
        raise ShapeError(f"posterior has {post.n_weights} weights but the "
                         f"architecture needs {net.n_weights}")
    return net, post


def save_spec(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc))


def load_spec(path, n_outputs: int | None = None):
    """Read a specification file into (Box, OutputSpec, meta).

    Schema: {center, epsilon (scalar or vector), clip?: [lo, hi],
    true_class | constraints: {C, d}}. With true_class, n_outputs must be
    known to build the argmax polytope. ``meta`` carries the center and the
    clip pair (or None) next to the optional task fields.
    """
    doc = read_json(path, "spec")
    try:
        center = np.array(doc["center"], dtype=float)
        eps = np.asarray(doc["epsilon"], dtype=float)
        clip = doc.get("clip")
        if clip is not None:
            lo, hi = (float(c) for c in clip)   # exactly two numbers
            clip = (lo, hi)
        T = linf_ball(center, eps, clip)
        if "constraints" in doc:
            S = OutputSpec(C=np.array(doc["constraints"]["C"], dtype=float),
                           d=np.array(doc["constraints"]["d"], dtype=float))
        elif "true_class" in doc:
            if n_outputs is None:
                raise FileFormatError("true_class spec needs the network output size")
            S = argmax_spec(int(doc["true_class"]), n_outputs)
        else:
            raise FileFormatError(f"spec file {path} needs true_class or constraints")
    except KeyError as e:
        raise FileFormatError(f"spec file {path} missing field {e}") from e
    except (ShapeError, FileFormatError):
        raise
    except (TypeError, ValueError) as e:
        raise FileFormatError(f"bad spec in {path}: {e}") from e
    meta = {k: doc[k] for k in ("true_class", "task", "index", "sigma_floor",
                                "sigma_ceil") if k in doc}
    return T, S, dict(meta, center=center, clip=clip)


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(cert.to_dict(), indent=2)
