"""Threat and countermeasure knowledge base.

Content lives in ``data/knowledge.json`` rather than in code so wording
fixes never touch rule logic. Every rule has exactly one record: its threat
(threat names are shared between rules where the same threat applies), its
developer countermeasure and the background a report prints. The global
user-countermeasure list has six entries.

Data file format (UTF-8 JSON): an object with exactly three keys. Its
``schema_version`` is the integer 1, ``rules`` is an array of records, each
with exactly the keys ``rule_id`` and the ``RuleKnowledge`` fields, and
``user_countermeasures`` is a string array.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import NamedTuple

from .rules import RuleId

_DATA_PATH = Path(__file__).with_name("data") / "knowledge.json"
_SCHEMA_VERSION = 1
_KEYS = ("schema_version", "rules", "user_countermeasures")


class RuleKnowledge(NamedTuple):
    """One rule's record in the data file, but its ``rule_id``."""

    threat_name: str
    threat_description: str
    developer_countermeasure: str
    background: str


class KnowledgeBase(NamedTuple):
    rules: dict[RuleId, RuleKnowledge]
    user_countermeasures: tuple[str, ...]


class KnowledgeBaseError(Exception):
    """The knowledge data file is missing entries or malformed."""


def _typed(value, kind: type, what: str):
    """``value``, which must be a JSON value of Python type ``kind``; ``what`` names it in the error."""
    if type(value) is not kind:
        raise KnowledgeBaseError(f"{what} is {type(value).__name__}, not {kind.__name__}")
    return value


def _refuse_unknown_keys(doc: dict, keys: tuple[str, ...], what: str) -> None:
    unknown = sorted(doc.keys() - set(keys))
    if unknown:
        raise KnowledgeBaseError(f"{what} has unknown keys {unknown}")


@functools.lru_cache(maxsize=1)
def load_knowledge_base() -> KnowledgeBase:
    raw = _DATA_PATH.read_text("utf-8")
    try:
        doc = _typed(json.loads(raw), dict, "knowledge data")
        version, records, texts = (doc[key] for key in _KEYS)
    except KeyError as exc:
        raise KnowledgeBaseError(f"knowledge data lacks key {exc}") from exc
    except (RecursionError, ValueError) as exc:
        raise KnowledgeBaseError(f"knowledge data is not JSON: {exc}") from exc
    if type(version) is not int or version != _SCHEMA_VERSION:
        raise KnowledgeBaseError(f"knowledge schema_version is {version!r}, not {_SCHEMA_VERSION}")
    _refuse_unknown_keys(doc, _KEYS, "knowledge data")

    rules: dict[RuleId, RuleKnowledge] = {}
    for i, record in enumerate(_typed(records, list, "knowledge rules")):
        try:
            rule = RuleId(_typed(record, dict, f"knowledge record {i}")["rule_id"])
            entry = RuleKnowledge._make(
                _typed(record[field], str, f"knowledge record {i} field {field!r}") for field in RuleKnowledge._fields
            )
        except KeyError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} lacks field {exc}") from exc
        except ValueError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} is malformed: {exc}") from exc
        _refuse_unknown_keys(record, ("rule_id", *RuleKnowledge._fields), f"knowledge record {i}")
        if rule in rules:
            raise KnowledgeBaseError(f"duplicate knowledge record for {rule.value}")
        rules[rule] = entry

    missing = [r.value for r in RuleId if r not in rules]
    if missing:
        raise KnowledgeBaseError(f"knowledge data lacks entries for {missing}")

    texts = _typed(texts, list, "knowledge user_countermeasures")
    user = tuple(_typed(text, str, f"user countermeasure {i}") for i, text in enumerate(texts))
    if len(user) != 6:
        raise KnowledgeBaseError(f"expected 6 user countermeasures, found {len(user)}")
    return KnowledgeBase(rules, user)
