"""Core data containers and file IO.

The on-disk formats are line-delimited JSON (one record per line, UTF-8);
see docs/file_formats.md for the field-by-field description. Reward vectors
are float64 numpy arrays whose entries follow the registry's canonical
model order everywhere in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataFormatError

# Reserved tag assigned to rows with an empty tag set during aggregation,
# so tag-mean targets are defined for every row.
UNTAGGED = "__untagged__"


@dataclass(frozen=True)
class Query:
    """One routed unit of text."""

    id: str
    text: str
    tags: frozenset[str] = frozenset()
    subset: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataFormatError("query id must be a non-empty string")
        if not self.text.strip():
            raise DataFormatError(f"query {self.id!r}: text is empty after trimming")
        object.__setattr__(self, "tags", frozenset(self.tags))


@dataclass(frozen=True)
class ModelRegistry:
    """Ordered, canonical tuple of candidate model ids.

    The order is fixed: reward vectors, routing distributions, and router
    weight rows all index models by their position here. Where each model
    is served is a deployment setting, kept in the gateway config.
    """

    ids: tuple[str, ...]

    def __post_init__(self):
        ids = tuple(self.ids)
        object.__setattr__(self, "ids", ids)
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataFormatError(f"duplicate model_id(s) in registry: {dupes}")
        if not ids:
            raise DataFormatError("registry has no models")

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, model_id: str) -> int:
        try:
            return self.ids.index(model_id)
        except ValueError:
            raise DataFormatError(f"unknown model_id {model_id!r}") from None


@dataclass(frozen=True)
class DatasetRow:
    query: Query
    rewards: np.ndarray  # float64, registry order

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=np.float64)
        if r.ndim != 1:
            raise DataFormatError(f"query {self.query.id!r}: reward vector must be 1-D")
        if not np.all(np.isfinite(r)):
            raise DataFormatError(f"query {self.query.id!r}: non-finite reward entry")
        object.__setattr__(self, "rewards", r)


@dataclass(frozen=True)
class RewardDataset:
    """Queries plus their per-model scalar rewards, all sharing one registry."""

    registry: ModelRegistry
    rows: tuple[DatasetRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        k = len(self.registry)
        seen: set[str] = set()
        for row in self.rows:
            if row.rewards.shape != (k,):
                raise DataFormatError(
                    f"query {row.query.id!r}: reward vector has length "
                    f"{row.rewards.shape[0]}, registry has {k} models"
                )
            if row.query.id in seen:
                raise DataFormatError(f"duplicate query id {row.query.id!r}")
            seen.add(row.query.id)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def reward_matrix(self) -> np.ndarray:
        """All reward vectors stacked into an (N, K) float64 matrix."""
        return np.stack([row.rewards for row in self.rows])

    def with_rows(self, rows: Iterable[DatasetRow]) -> "RewardDataset":
        return RewardDataset(self.registry, tuple(rows))


# ---------------------------------------------------------------------------
# registry / dataset / oracle file IO
# ---------------------------------------------------------------------------

def read_registry_file(path: str | Path) -> tuple[ModelRegistry, list[dict]]:
    """Parse a registry JSON file into its registry and its raw entries, in order.

    The file is {"models": [{"model_id": ...}, ...]}; keys other than
    "model_id" are left in the entries for the caller that needs them.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read registry file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"registry file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("models"), list):
        raise DataFormatError(f"registry file {path} must contain a 'models' list")
    entries = raw["models"]
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "model_id" not in entry:
            raise DataFormatError(f"registry file {path}: entry {i} has no 'model_id'")
    return ModelRegistry(tuple(str(e["model_id"]) for e in entries)), entries


def load_registry(path: str | Path) -> ModelRegistry:
    """Read the ordered model ids of a registry JSON file."""
    return read_registry_file(path)[0]


def save_registry(registry: ModelRegistry, path: str | Path) -> None:
    entries = [{"model_id": model_id} for model_id in registry.ids]
    Path(path).write_text(
        json.dumps({"models": entries}, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def _parse_dataset_line(line: str, lineno: int, registry: ModelRegistry) -> DatasetRow:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(rec, dict):
        raise DataFormatError(f"line {lineno}: record is not a JSON object")
    for key in ("id", "query", "rewards"):
        if key not in rec:
            raise DataFormatError(f"line {lineno}: missing field {key!r}")
    rewards_raw = rec["rewards"]
    if not isinstance(rewards_raw, dict):
        raise DataFormatError(f"line {lineno}: 'rewards' must be an object")
    for model_id in rewards_raw:
        if model_id not in registry.ids:
            raise DataFormatError(
                f"line {lineno}: reward for unregistered model {model_id!r}"
            )
    values = np.empty(len(registry), dtype=np.float64)
    for j, model_id in enumerate(registry.ids):
        if model_id not in rewards_raw:
            raise DataFormatError(
                f"line {lineno}: missing reward entry for model {model_id!r}"
            )
        values[j] = float(rewards_raw[model_id])
    try:
        query = Query(
            id=str(rec["id"]),
            text=str(rec["query"]),
            tags=frozenset(rec.get("tags") or ()),
            subset=rec.get("subset"),
        )
        return DatasetRow(query=query, rewards=values)
    except DataFormatError as exc:
        raise DataFormatError(f"line {lineno}: {exc}") from exc


def load_dataset(path: str | Path, registry: ModelRegistry) -> RewardDataset:
    """Read a line-delimited dataset file, validating every record.

    Raises DataFormatError with the offending line number on parse errors,
    unknown or missing model ids, duplicate query ids, or an empty file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset file {path}: {exc}") from exc
    rows: list[DatasetRow] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = _parse_dataset_line(line, lineno, registry)
        if row.query.id in seen:
            raise DataFormatError(f"line {lineno}: duplicate query id {row.query.id!r}")
        seen.add(row.query.id)
        rows.append(row)
    if not rows:
        raise DataFormatError(f"empty dataset: {path}")
    return RewardDataset(registry=registry, rows=tuple(rows))


def dataset_record(row: DatasetRow, registry: ModelRegistry) -> dict:
    rec: dict = {"id": row.query.id, "query": row.query.text}
    rec["tags"] = sorted(row.query.tags)
    if row.query.subset is not None:
        rec["subset"] = row.query.subset
    rec["rewards"] = {m: float(v) for m, v in zip(registry.ids, row.rewards)}
    return rec


def save_dataset(dataset: RewardDataset, path: str | Path) -> None:
    """Write a dataset as line-delimited JSON. Output bytes are deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in dataset.rows:
            fh.write(json.dumps(dataset_record(row, dataset.registry)) + "\n")


def load_oracle(path: str | Path, registry: ModelRegistry) -> dict[str, np.ndarray]:
    """Read an oracle file: one {"id": ..., "scores": {model: value}} per line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read oracle file {path}: {exc}") from exc
    oracle: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"oracle line {lineno}: invalid JSON ({exc.msg})") from exc
        if "id" not in rec or "scores" not in rec:
            raise DataFormatError(f"oracle line {lineno}: need 'id' and 'scores'")
        values = np.empty(len(registry), dtype=np.float64)
        for j, model_id in enumerate(registry.ids):
            if model_id not in rec["scores"]:
                raise DataFormatError(
                    f"oracle line {lineno}: missing score for model {model_id!r}"
                )
            values[j] = float(rec["scores"][model_id])
        oracle[str(rec["id"])] = values
    return oracle


def save_oracle(oracle: Mapping[str, np.ndarray], registry: ModelRegistry,
                path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, values in oracle.items():
            rec = {"id": qid, "scores": {m: float(v) for m, v in zip(registry.ids, values)}}
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# keyword tagging
# ---------------------------------------------------------------------------

def load_tag_rules(path: str | Path) -> dict[str, list[str]]:
    """Read a rules JSON file mapping tag -> list of keywords."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read rules file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"rules file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataFormatError(f"rules file {path} must be a JSON object")
    rules: dict[str, list[str]] = {}
    for tag, keywords in raw.items():
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise DataFormatError(f"rules file {path}: tag {tag!r} needs a list of strings")
        rules[str(tag)] = keywords
    return rules


def apply_tag_rules(dataset: RewardDataset, rules: Mapping[str, list[str]]) -> RewardDataset:
    """Assign every tag whose keyword occurs in the query text (case-insensitive).

    Matched tags are added to the row's existing tag set; rows matching no
    rule keep their tags unchanged.
    """
    new_rows = []
    for row in dataset.rows:
        text = row.query.text.lower()
        matched = {tag for tag, kws in rules.items()
                   if any(kw.lower() in text for kw in kws)}
        if matched:
            query = replace(row.query, tags=row.query.tags | matched)
            new_rows.append(DatasetRow(query=query, rewards=row.rewards))
        else:
            new_rows.append(row)
    return dataset.with_rows(new_rows)
