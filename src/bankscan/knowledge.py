"""Threat and countermeasure knowledge base.

Content lives in ``data/knowledge.json`` rather than in code so wording
fixes never touch rule logic. Each rule maps to exactly one threat entry
(threat names are shared between rules where the same threat applies) and
one developer countermeasure; the global user-countermeasure list has six
entries. Lookups are total: every rule id resolves.

Data file format (UTF-8 JSON): an object with exactly three keys. Its
``schema_version`` is the integer 1, ``rules`` is an array of records with
fields ``rule_id``, ``threat_name``, ``threat_description``,
``developer_countermeasure`` and ``background``, and
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


class ThreatEntry(NamedTuple):
    rule: RuleId
    threat_name: str
    description: str


class CountermeasureEntry(NamedTuple):
    rule: RuleId
    developer_action: str


class UserCountermeasure(NamedTuple):
    text: str


class KnowledgeBase(NamedTuple):
    threats: dict[RuleId, ThreatEntry]
    countermeasures: dict[RuleId, CountermeasureEntry]
    backgrounds: dict[RuleId, str]
    user_countermeasures: tuple[UserCountermeasure, ...]


class KnowledgeBaseError(Exception):
    """The knowledge data file is missing entries or malformed."""


def _typed(value, kind: type, what: str):
    """``value``, which must be a JSON value of Python type ``kind``; ``what`` names it in the error."""
    if type(value) is not kind:
        raise KnowledgeBaseError(f"{what} is {type(value).__name__}, not {kind.__name__}")
    return value


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
    unknown = sorted(doc.keys() - set(_KEYS))
    if unknown:
        raise KnowledgeBaseError(f"knowledge data has unknown keys {unknown}")

    threats: dict[RuleId, ThreatEntry] = {}
    countermeasures: dict[RuleId, CountermeasureEntry] = {}
    backgrounds: dict[RuleId, str] = {}
    for i, record in enumerate(_typed(records, list, "knowledge rules")):
        try:
            rule = RuleId(_typed(record, dict, f"knowledge record {i}")["rule_id"])
            name, description, action, background = (
                _typed(record[field], str, f"knowledge record {i} field {field!r}")
                for field in ("threat_name", "threat_description", "developer_countermeasure", "background")
            )
        except KeyError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} lacks field {exc}") from exc
        except ValueError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} is malformed: {exc}") from exc
        if rule in threats:
            raise KnowledgeBaseError(f"duplicate knowledge record for {rule.value}")
        threats[rule] = ThreatEntry(rule, name, description)
        countermeasures[rule] = CountermeasureEntry(rule, action)
        backgrounds[rule] = background

    missing = [r.value for r in RuleId if r not in threats]
    if missing:
        raise KnowledgeBaseError(f"knowledge data lacks entries for {missing}")

    texts = _typed(texts, list, "knowledge user_countermeasures")
    user = tuple(UserCountermeasure(_typed(text, str, f"user countermeasure {i}")) for i, text in enumerate(texts))
    if len(user) != 6:
        raise KnowledgeBaseError(f"expected 6 user countermeasures, found {len(user)}")

    return KnowledgeBase(
        threats=threats,
        countermeasures=countermeasures,
        backgrounds=backgrounds,
        user_countermeasures=user,
    )


def threat_for(rule: RuleId) -> ThreatEntry:
    return load_knowledge_base().threats[rule]


def countermeasure_for(rule: RuleId) -> CountermeasureEntry:
    return load_knowledge_base().countermeasures[rule]


def user_countermeasures() -> list[UserCountermeasure]:
    return list(load_knowledge_base().user_countermeasures)
