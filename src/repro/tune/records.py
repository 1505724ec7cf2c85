"""Persistent tuning records: the on-disk memory of the measure→plan loop.

A :class:`TuningRecord` remembers, for one exactly-identified piece of work
(full layer/chain geometry + GPU + dtype + cost convention), what the
analytic cost model *predicted* and what the measurement harness *observed*
— plus the best tiling the measurement search found and how many candidates
that search evaluated.  :class:`TuningDB` is the keyed collection of best
records with a versioned JSON-lines serialization.

Design rules (all regression-tested):

* **Determinism** — ``save`` emits a canonical byte stream: header first,
  records sorted by their serialized form, keys sorted inside every object.
  ``load`` → ``save`` round-trips byte-identically, so a committed DB never
  produces diff noise.
* **Schema guards** — the header and every record carry the schema version.
  Corrupt lines, missing headers and future versions raise
  :class:`~repro.errors.TuneError` instead of silently degrading: a tuning
  DB feeds planner decisions, so a half-read DB is worse than none.
* **Full-geometry keys** — like the planner's own memo keys, records are
  keyed by everything the measurement depends on and nothing it doesn't
  (layer *names* are deliberately excluded; identical blocks share records).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import TuneError
from ..ir.layers import ConvSpec

__all__ = [
    "SCHEMA_VERSION",
    "TuningKey",
    "TuningRecord",
    "TuningDB",
    "spec_geometry",
    "chain_geometry",
]

#: Bump when the record layout changes; loaders reject anything newer.
SCHEMA_VERSION = 1

#: Magic string identifying a tuning DB header line.
_DB_KIND = "repro-tunedb"


def spec_geometry(spec: ConvSpec) -> tuple:
    """Geometry tuple of one conv layer — everything its cost depends on.

    Mirrors the planner's LBL memo key (kind, channels, spatial extent,
    kernel, stride, padding) minus the dtype, which lives on the
    :class:`TuningKey` itself.
    """
    return (
        spec.kind.short,
        spec.in_channels,
        spec.out_channels,
        spec.in_h,
        spec.in_w,
        spec.kernel,
        spec.stride,
        spec.padding,
    )


def chain_geometry(specs: Iterable[ConvSpec]) -> tuple:
    """Geometry tuple of a fused chain: one entry per stage."""
    return tuple(spec_geometry(s) for s in specs)


def _tuplify(obj):
    """Recursively turn JSON lists back into the tuples keys hash by."""
    if isinstance(obj, list):
        return tuple(_tuplify(x) for x in obj)
    return obj


@dataclass(frozen=True)
class TuningKey:
    """Identity of one tuning record.

    ``family`` names the kernel family the calibration pass groups by:
    ``lbl-dw`` / ``lbl-pw`` for direct kernels, ``fcm-<type>`` for pairwise
    fused modules, ``chain-<N>`` for longer chains, ``std`` / ``glue`` for
    the shared non-DW/PW steps, and ``model`` for whole-plan records (whose
    geometry is ``(model_name, max_chain)``).
    """

    family: str
    geometry: tuple
    gpu: str
    dtype: str
    convention: str

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "geometry": list(self.geometry),
            "gpu": self.gpu,
            "dtype": self.dtype,
            "convention": self.convention,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TuningKey":
        try:
            return cls(
                family=str(obj["family"]),
                geometry=_tuplify(obj["geometry"]),
                gpu=str(obj["gpu"]),
                dtype=str(obj["dtype"]),
                convention=str(obj["convention"]),
            )
        except (KeyError, TypeError) as exc:
            raise TuneError(f"malformed tuning key {obj!r}: {exc}") from None


@dataclass(frozen=True)
class TuningRecord:
    """One measured data point plus the analytic prediction it calibrates.

    ``est_cost_s`` / ``measured_cost_s`` describe the *planner's chosen*
    tiling — the apples-to-apples pair calibration ratios are fitted from.
    ``tiling`` / ``tuned_cost_s`` describe the best tiling the measurement
    search found (identical to the planner's when the analytic model already
    ranked candidates correctly), and ``evaluated`` is the search budget
    actually spent.  ``engine`` records the measurement's provenance: the
    analytic counter backend (``"analytic"``, the default — also assumed for
    records written before the field existed) or, for kernel-in-the-loop
    measurements, which execution engine ran the simulated grid (``"fast"``;
    ``"reference"`` in DBs written when tuning could select that engine,
    which still load and round-trip unchanged).
    """

    key: TuningKey
    tiling: dict[str, int]
    est_cost_s: float
    measured_cost_s: float
    tuned_cost_s: float
    gma_bytes: int
    evaluated: int
    seed: int = 0
    engine: str = "analytic"

    @property
    def ratio(self) -> float:
        """Measured-over-estimated cost: the calibration signal."""
        return self.measured_cost_s / self.est_cost_s if self.est_cost_s else 1.0

    def to_json(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "key": self.key.to_json(),
            "tiling": {k: int(v) for k, v in sorted(self.tiling.items())},
            "est_cost_s": float(self.est_cost_s),
            "measured_cost_s": float(self.measured_cost_s),
            "tuned_cost_s": float(self.tuned_cost_s),
            "gma_bytes": int(self.gma_bytes),
            "evaluated": int(self.evaluated),
            "seed": int(self.seed),
            "engine": str(self.engine),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TuningRecord":
        if not isinstance(obj, dict) or "v" not in obj:
            raise TuneError(f"tuning record without a schema version: {obj!r}")
        if obj["v"] != SCHEMA_VERSION:
            raise TuneError(
                f"tuning record schema v{obj['v']} is not v{SCHEMA_VERSION}; "
                "re-tune with this build (future records are never guessed at)"
            )
        try:
            return cls(
                key=TuningKey.from_json(obj["key"]),
                tiling={str(k): int(v) for k, v in obj["tiling"].items()},
                est_cost_s=float(obj["est_cost_s"]),
                measured_cost_s=float(obj["measured_cost_s"]),
                tuned_cost_s=float(obj["tuned_cost_s"]),
                gma_bytes=int(obj["gma_bytes"]),
                evaluated=int(obj["evaluated"]),
                seed=int(obj["seed"]),
                # Provenance field added after v1 records shipped: absent
                # means the analytic counter backend, so old DBs stay
                # readable without a schema bump.
                engine=str(obj.get("engine", "analytic")),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TuneError(f"malformed tuning record: {exc}") from None


def _canonical(obj: dict) -> str:
    """One canonical JSON line: sorted keys, no gratuitous whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TuningDB:
    """Best-record-per-key store with deterministic JSONL (de)serialization."""

    def __init__(self) -> None:
        self._records: dict[TuningKey, TuningRecord] = {}
        #: canonical key strings, computed once per key at insert time —
        #: iteration order must not cost a full re-serialization per pass.
        self._key_str: dict[TuningKey, str] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: TuningKey) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[TuningRecord]:
        """Records in canonical (key-serialized) order — keys are unique, so
        this is the total order save/show/export all share."""
        return iter(
            self._records[k]
            for k in sorted(self._records, key=self._key_str.__getitem__)
        )

    def get(self, key: TuningKey) -> TuningRecord | None:
        return self._records.get(key)

    def add(self, record: TuningRecord) -> bool:
        """Insert ``record``, keeping the best (lowest tuned cost) per key.

        Returns True when the record was adopted as the key's best; ties
        keep the incumbent (and return False) so replayed merges are
        idempotent.
        """
        cur = self._records.get(record.key)
        if cur is None or record.tuned_cost_s < cur.tuned_cost_s:
            self._records[record.key] = record
            if record.key not in self._key_str:
                self._key_str[record.key] = _canonical(record.key.to_json())
            return True
        return False

    def merge(self, other: "TuningDB") -> int:
        """Fold another DB in (best record wins); returns records adopted."""
        return sum(self.add(r) for r in other)

    # ---- persistence --------------------------------------------------------
    def dumps(self) -> str:
        """Canonical serialization: header line + one sorted record per line."""
        lines = [_canonical({"kind": _DB_KIND, "schema": SCHEMA_VERSION})]
        lines.extend(_canonical(r.to_json()) for r in self)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> Path:
        """Write the canonical form; byte-identical for equal contents."""
        path = Path(path)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "TuningDB":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TuneError("empty tuning DB (missing header line)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TuneError(f"corrupt tuning DB header: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != _DB_KIND:
            raise TuneError(f"not a tuning DB (header {lines[0]!r})")
        if header.get("schema") != SCHEMA_VERSION:
            raise TuneError(
                f"tuning DB schema v{header.get('schema')!r} is not "
                f"v{SCHEMA_VERSION}; refusing to guess at a future layout"
            )
        db = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TuneError(f"corrupt tuning record on line {lineno}: {exc}") from None
            db.add(TuningRecord.from_json(obj))
        return db

    @classmethod
    def load(cls, path: str | Path) -> "TuningDB":
        path = Path(path)
        if not path.exists():
            raise TuneError(f"tuning DB {path} does not exist")
        return cls.loads(path.read_text())
