"""Threat and countermeasure knowledge base.

Content lives in ``data/knowledge.json`` rather than in code so wording
fixes never touch rule logic. Each rule maps to exactly one threat entry
(threat names are shared between rules where the same threat applies) and
one developer countermeasure; the global user-countermeasure list has six
entries. Lookups are total: every rule id resolves.

Data file format (UTF-8 JSON): a ``rules`` array of records with fields
``rule_id``, ``threat_name``, ``threat_description``,
``developer_countermeasure`` and ``background``, plus a top-level
``user_countermeasures`` string array.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import NamedTuple

from .rules import RuleId

_DATA_PACKAGE = __package__
_DATA_FILE = "data/knowledge.json"


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


@functools.lru_cache(maxsize=1)
def load_knowledge_base() -> KnowledgeBase:
    raw = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text("utf-8")
    doc = json.loads(raw)

    threats: dict[RuleId, ThreatEntry] = {}
    countermeasures: dict[RuleId, CountermeasureEntry] = {}
    backgrounds: dict[RuleId, str] = {}
    for i, record in enumerate(doc["rules"]):
        try:
            rule = RuleId(record["rule_id"])
            threat = ThreatEntry(rule, record["threat_name"], record["threat_description"])
            countermeasure = CountermeasureEntry(rule, record["developer_countermeasure"])
            background = record["background"]
        except KeyError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} lacks field {exc}") from exc
        except ValueError as exc:
            raise KnowledgeBaseError(f"knowledge record {i} is malformed: {exc}") from exc
        if rule in threats:
            raise KnowledgeBaseError(f"duplicate knowledge record for {rule.value}")
        threats[rule] = threat
        countermeasures[rule] = countermeasure
        backgrounds[rule] = background

    missing = [r.value for r in RuleId if r not in threats]
    if missing:
        raise KnowledgeBaseError(f"knowledge data lacks entries for {missing}")

    user = tuple(UserCountermeasure(text=t) for t in doc["user_countermeasures"])
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
