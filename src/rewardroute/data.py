"""Core data containers, and every text file format: read, check, write.

This is the one module that reads the package's JSON and JSON-lines files
(see docs/file_formats.md for the field-by-field description). Each field
is checked where it is read, and any unreadable, malformed or mistyped
input is a DataFormatError naming the file or line. Reward vectors
are float64 numpy arrays whose entries follow the registry's canonical
model order everywhere in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DataFormatError

# Reserved tag assigned to rows with an empty tag set during aggregation,
# so tag-mean targets are defined for every row.
UNTAGGED = "__untagged__"


def check_query_text(text: str, what: str) -> None:
    """Raise DataFormatError unless text is routable: not blank, and with a UTF-8 form.

    what names the text in the message, e.g. "--query" or "'query'".
    """
    if not text.strip():
        raise DataFormatError(f"{what} is blank")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # JSON's "\ud800", or argv bytes that are not UTF-8
        raise DataFormatError(f"{what} holds a lone surrogate at character {exc.start}, "
                              "so it has no UTF-8 form") from None


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is a non-negative integer, as numpy's default_rng needs."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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
        check_query_text(self.text, f"query {self.id!r}: text")
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

    def reward_matrix(self) -> np.ndarray:
        """All reward vectors stacked into an (N, K) float64 matrix."""
        return np.stack([row.rewards for row in self.rows])

    def with_rows(self, rows: Iterable[DatasetRow]) -> "RewardDataset":
        return RewardDataset(self.registry, tuple(rows))


# ---------------------------------------------------------------------------
# reading, checking and writing files
# ---------------------------------------------------------------------------

def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, what: str) -> dict:
    """Parse a JSON file holding one object; `what` names the file in errors."""
    path = Path(path)
    try:
        raw = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataFormatError(f"{what} {path} must be a JSON object")
    return raw


def _read_json_lines(path: str | Path, what: str, label: str = "") -> Iterator[tuple[str, dict]]:
    """Yield ("<label>line N", record) for each non-blank line, which must hold an object."""
    for lineno, line in enumerate(_read_text(Path(path), what).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{label}line {lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise DataFormatError(f"{where}: record is not a JSON object")
        yield where, rec


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line. Output bytes are deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def require_fields(rec: Mapping, keys: Iterable[str], where: str) -> None:
    for key in keys:
        if key not in rec:
            raise DataFormatError(f"{where}: missing field {key!r}")


def check_str(value, where: str, name: str) -> str:
    if not isinstance(value, str):
        raise DataFormatError(f"{where}: {name} must be a string, got {value!r}")
    return value


def check_strings(value, where: str, name: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataFormatError(f"{where}: {name} must be a list of strings, got {value!r}")
    return value


def to_number(convert: type[int] | type[float], value, where: str, name: str):
    """A JSON integer (convert=int) or a JSON number (convert=float) as that type.

    A bool, a string or a float where an integer is due is a DataFormatError,
    never coerced; so is an integer too large for a float.
    """
    kinds = (int,) if convert is int else (int, float)
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            return convert(value)
        except OverflowError:
            pass
    kind = "an integer" if convert is int else "a number"
    raise DataFormatError(f"{where}: {name} must be {kind}, got {value!r}")


def _model_vector(values, registry: ModelRegistry, where: str, field: str,
                  noun: str) -> np.ndarray:
    """A {model_id: number} object as a float64 vector in registry order."""
    if not isinstance(values, dict):
        raise DataFormatError(f"{where}: {field!r} must be an object")
    vector = np.empty(len(registry), dtype=np.float64)
    for j, model_id in enumerate(registry.ids):
        if model_id not in values:
            raise DataFormatError(f"{where}: missing {noun} for model {model_id!r}")
        vector[j] = to_number(float, values[model_id], where, f"{noun} for model {model_id!r}")
    return vector


def registry_entries(registry: ModelRegistry) -> list[dict]:
    """The registry as the entry list registry files and checkpoints store."""
    return [{"model_id": model_id} for model_id in registry.ids]


def registry_from_entries(entries: list, where: str) -> ModelRegistry:
    """The registry of an entry list [{"model_id": ...}, ...].

    Every entry must be an object whose "model_id" is a string. Other keys
    (endpoints in registry files, "endpoint"/"display_name" in older
    checkpoints) are ignored.
    """
    ids = []
    for i, entry in enumerate(entries):
        entry_where = f"{where}: entry {i}"
        if not isinstance(entry, dict) or "model_id" not in entry:
            raise DataFormatError(f"{entry_where} has no 'model_id'")
        ids.append(check_str(entry["model_id"], entry_where, "'model_id'"))
    return ModelRegistry(tuple(ids))


def _read_registry(path: str | Path) -> tuple[ModelRegistry, list[dict]]:
    """The registry of a registry JSON file and its raw entries, in order."""
    raw = read_json(path, "registry file")
    entries = raw.get("models")
    if not isinstance(entries, list):
        raise DataFormatError(f"registry file {path} must contain a 'models' list")
    return registry_from_entries(entries, f"registry file {path}"), entries


def read_registry_file(path: str | Path) -> tuple[ModelRegistry, dict[str, str]]:
    """Parse a registry JSON file into its registry and its endpoint map.

    The file is {"models": [{"model_id": ..., "endpoint": ...}, ...]}. The
    map takes each model whose entry names an endpoint to that URL, which
    must be a string; other keys are ignored.
    """
    registry, entries = _read_registry(path)
    endpoints = {m: e["endpoint"] for m, e in zip(registry.ids, entries)
                 if e.get("endpoint") is not None}
    bad = [m for m, endpoint in endpoints.items() if not isinstance(endpoint, str)]
    if bad:
        raise DataFormatError(f"registry file {path}: endpoint of {bad} is not a string")
    return registry, endpoints


def load_registry(path: str | Path) -> ModelRegistry:
    """Read the ordered model ids of a registry JSON file; endpoints are not read."""
    return _read_registry(path)[0]


def save_registry(registry: ModelRegistry, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps({"models": registry_entries(registry)}, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def _dataset_row(where: str, rec: dict, registry: ModelRegistry) -> DatasetRow:
    require_fields(rec, ("id", "query", "rewards"), where)
    rewards = _model_vector(rec["rewards"], registry, where, "rewards", "reward entry")
    for model_id in rec["rewards"]:
        if model_id not in registry.ids:
            raise DataFormatError(f"{where}: reward for unregistered model {model_id!r}")
    qid = check_str(rec["id"], where, "'id'")
    text = check_str(rec["query"], where, "'query'")
    tags, subset = rec.get("tags"), rec.get("subset")
    tags = frozenset(() if tags is None else check_strings(tags, where, "'tags'"))
    subset = None if subset is None else check_str(subset, where, "'subset'")
    try:
        return DatasetRow(query=Query(qid, text, tags, subset), rewards=rewards)
    except DataFormatError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def load_dataset(path: str | Path, registry: ModelRegistry) -> RewardDataset:
    """Read a line-delimited dataset file, validating every record.

    Raises DataFormatError with the offending line number on parse errors,
    mistyped fields, unknown or missing model ids, duplicate query ids, or
    an empty file.
    """
    rows: list[DatasetRow] = []
    seen: set[str] = set()
    for where, rec in _read_json_lines(path, "dataset file"):
        row = _dataset_row(where, rec, registry)
        if row.query.id in seen:
            raise DataFormatError(f"{where}: duplicate query id {row.query.id!r}")
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
    write_json_lines(path, (dataset_record(row, dataset.registry) for row in dataset.rows))


def load_oracle(path: str | Path, registry: ModelRegistry) -> dict[str, np.ndarray]:
    """Read an oracle file: one {"id": ..., "scores": {model: value}} per line."""
    oracle: dict[str, np.ndarray] = {}
    for where, rec in _read_json_lines(path, "oracle file", "oracle "):
        require_fields(rec, ("id", "scores"), where)
        scores = _model_vector(rec["scores"], registry, where, "scores", "score")
        qid = check_str(rec["id"], where, "'id'")
        if qid in oracle:
            raise DataFormatError(f"{where}: duplicate query id {qid!r}")
        oracle[qid] = scores
    return oracle


def save_oracle(oracle: Mapping[str, np.ndarray], registry: ModelRegistry,
                path: str | Path) -> None:
    write_json_lines(path, (
        {"id": qid, "scores": {m: float(v) for m, v in zip(registry.ids, values)}}
        for qid, values in oracle.items()
    ))


def load_benchmark_queries(path: str | Path) -> list[str]:
    """Benchmark query texts: one per non-blank line, stripped."""
    lines = _read_text(Path(path), "benchmark file").splitlines()
    return [line.strip() for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# keyword tagging
# ---------------------------------------------------------------------------

def load_tag_rules(path: str | Path) -> dict[str, list[str]]:
    """Read a rules JSON file mapping tag -> list of keywords."""
    raw = read_json(path, "rules file")
    return {tag: check_strings(keywords, f"rules file {path}", f"tag {tag!r}")
            for tag, keywords in raw.items()}


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
