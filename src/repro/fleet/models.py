"""Wire-serializable model specs: what a fleet deploys and routes on.

A fleet is a *distributed* system: the gateway decides placement, worker
processes build engines, and cold workers fetch warm artifacts over the
network — three parties that must agree on *which model* they are
talking about without shipping numpy arrays around.
:class:`FleetModelSpec` is that agreement: a small, JSON-round-trippable
value (builder kind + parameters + engine seed + crossbar model) from
which any process can deterministically rebuild the exact same
:class:`~repro.engine.InferenceEngine` — same weights (seeded builders),
same compilation, same programmed crossbars.

:func:`route_key` collapses a spec (plus the fleet-wide
:class:`~repro.config.PumaConfig`) into one stable digest.  That single
key is used three ways, which is the point — agreeing parties:

* the gateway's consistent-hash **placement** key (replicas of one model
  land on the same workers and share warm artifacts);
* the per-model **queue** identity (heavy CNN traffic waits in its own
  queue, not in front of MLP requests);
* the networked artifact store's **blob name** (a cold worker GETs the
  blob for its route key and warm-starts bitwise-identically).

Supported kinds mirror the paper's workload classes: ``mlp``, ``lstm``,
``rnn`` (seeded builders from :mod:`repro.workloads`), ``cnn_small``
(the compilable conv/pool/dense stack), and ``graph`` (an embedded
importer description, so user models deploy the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.store import fingerprint_digest, fingerprint_value

MODEL_KINDS = ("mlp", "lstm", "rnn", "cnn_small", "graph")


class FleetModelError(ValueError):
    """A model spec is malformed or names an unknown builder kind."""


@dataclass(frozen=True)
class FleetModelSpec:
    """One deployable model, as a value any fleet process can rebuild.

    Attributes:
        name: the client-facing model name (unique within a fleet).
        kind: builder kind, one of :data:`MODEL_KINDS`.
        params: builder parameters (JSON-representable; e.g.
            ``{"dims": [32, 24, 10]}`` for an MLP, or
            ``{"graph": {...}}`` embedding an importer description).
        seed: engine seed — fixes weight init (for seeded builders),
            crossbar programming, and therefore the exact output bits.
        crossbar: optional :class:`~repro.arch.crossbar.CrossbarModel`
            keyword overrides (e.g. ``{"write_noise_sigma": 0.05}``);
            ``None`` derives the ideal model from the configuration.

    Example::

        spec = FleetModelSpec("mlp-small", "mlp", {"dims": [32, 24, 10]})
        spec == FleetModelSpec.from_dict(spec.to_dict())   # wire round-trip
    """

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    crossbar: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise FleetModelError(
                f"unknown model kind {self.kind!r}; expected one of "
                f"{MODEL_KINDS}")
        if not self.name:
            raise FleetModelError("model name must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        """The JSON-representable wire form (``from_dict`` inverts it)."""
        return {"name": self.name, "kind": self.kind,
                "params": dict(self.params), "seed": self.seed,
                "crossbar": dict(self.crossbar)
                if self.crossbar is not None else None}

    @classmethod
    def from_dict(cls, data: Any) -> "FleetModelSpec":
        if not isinstance(data, dict):
            raise FleetModelError(f"model spec must be an object, "
                                  f"got {type(data).__name__}")
        try:
            return cls(name=data["name"], kind=data["kind"],
                       params=dict(data.get("params") or {}),
                       seed=int(data.get("seed", 0)),
                       crossbar=dict(data["crossbar"])
                       if data.get("crossbar") else None)
        except (KeyError, TypeError, ValueError) as error:
            raise FleetModelError(f"malformed model spec: {error}") from error

    def crossbar_model(self):
        """The :class:`CrossbarModel` this spec's engines program with."""
        if self.crossbar is None:
            return None
        from repro.arch.crossbar import CrossbarModel

        try:
            return CrossbarModel(**self.crossbar)
        except (TypeError, ValueError) as error:
            raise FleetModelError(
                f"{self.name}: bad crossbar parameters: {error}") from error


def route_key(spec: FleetModelSpec, config: Any = None) -> str:
    """The fleet-wide identity digest of (spec, config).

    Value-based and process-independent (built on the artifact store's
    :func:`~repro.store.fingerprint_digest`), so the gateway, every
    worker, and the networked store all derive the same key without
    building the model.  Any change that changes the served bits —
    weights seed, builder params, crossbar noise, core config — changes
    the key, so stale placements or blobs can never alias.
    """
    if config is None:
        from repro import default_config

        config = default_config()
    return fingerprint_digest((
        "fleet-route", spec.name, spec.kind,
        fingerprint_value(spec.params), spec.seed,
        fingerprint_value(spec.crossbar),
        fingerprint_value(config)))


def build_engine(spec: FleetModelSpec, config: Any = None, *,
                 execution_mode: str = "auto",
                 artifact_dir: str | None = None):
    """Deterministically build the engine a spec describes.

    The same spec + config yields bitwise-identical engines in any
    process — the property every fleet guarantee (retry on another
    replica, warm-start from the network) rests on.

    Raises:
        FleetModelError: the builder refuses the spec's parameters
            (missing, mistyped or out of range) or its crossbar.
    """
    from repro import default_config
    from repro.engine import InferenceEngine

    if config is None:
        config = default_config()
    crossbar = spec.crossbar_model()
    model = compiled = None
    try:
        if spec.kind == "mlp":
            from repro.workloads import build_mlp_model

            model = build_mlp_model(list(spec.params["dims"]),
                                    name=spec.name,
                                    activation=spec.params.get(
                                        "activation", "sigmoid"),
                                    seed=spec.seed)
        elif spec.kind == "lstm":
            from repro.workloads import build_lstm_model

            model = build_lstm_model(
                int(spec.params["input_size"]),
                int(spec.params["hidden_size"]),
                int(spec.params["output_size"]),
                seq_len=int(spec.params.get("seq_len", 2)),
                name=spec.name, seed=spec.seed)
        elif spec.kind == "rnn":
            from repro.workloads import build_rnn_model

            model = build_rnn_model(
                int(spec.params["input_size"]),
                int(spec.params["hidden_size"]),
                int(spec.params["output_size"]),
                seq_len=int(spec.params.get("seq_len", 2)),
                name=spec.name, seed=spec.seed)
        elif spec.kind == "graph":
            from repro.compiler.importer import import_graph

            model = import_graph(spec.params["graph"])
        else:  # cnn_small — pre-compiled, no frontend model
            from repro.compiler.cnn import compile_cnn
            from repro.workloads.cnn import small_cnn_spec

            compiled = compile_cnn(small_cnn_spec(seed=spec.seed), config)
    except KeyError as error:
        raise FleetModelError(
            f"{spec.name}: spec kind {spec.kind!r} is missing required "
            f"parameter {error.args[0]!r}") from error
    except (AttributeError, TypeError, ValueError) as error:
        raise FleetModelError(
            f"{spec.name}: the {spec.kind!r} builder refused its "
            f"parameters: {error}") from error
    return InferenceEngine(model, config, compiled=compiled,
                           crossbar_model=crossbar, seed=spec.seed,
                           execution_mode=execution_mode,
                           artifact_dir=artifact_dir)
