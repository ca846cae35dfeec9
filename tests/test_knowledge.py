import json
import types
from importlib import resources

import pytest

from bankscan import knowledge
from bankscan.knowledge import (
    KnowledgeBaseError,
    countermeasure_for,
    load_knowledge_base,
    threat_for,
    user_countermeasures,
)
from bankscan.rules import RuleId


def test_lookups_total_over_all_rules():
    kb = load_knowledge_base()
    for rule in RuleId:
        assert threat_for(rule).threat_name
        assert threat_for(rule).description
        assert countermeasure_for(rule).developer_action
        assert kb.backgrounds[rule]


def test_threat_examples():
    assert threat_for(RuleId.R04).threat_name == "Unauthorized access"
    assert "without authorization" in threat_for(RuleId.R04).description
    assert threat_for(RuleId.R08).threat_name == "Cross-site Scripting threat"
    assert "cross-site scripting" in threat_for(RuleId.R08).description
    assert threat_for(RuleId.R14).threat_name == "Phishing through fake applications"
    assert "fake applications" in threat_for(RuleId.R14).description


def test_countermeasure_examples():
    assert countermeasure_for(RuleId.R01).developer_action == (
        "Always use explicit intent when starting a service."
    )
    assert countermeasure_for(RuleId.R11).developer_action == (
        'Do not use "file.delete()" to delete essential files.'
    )
    assert 'android:protectionLevel="signature"' in countermeasure_for(RuleId.R06).developer_action


def test_shared_threat_names():
    disposal = {threat_for(r).threat_name for r in (RuleId.R10, RuleId.R11, RuleId.R13)}
    assert disposal == {"Improper disposal of the device"}
    third_party = {threat_for(r).threat_name for r in (RuleId.R03, RuleId.R06)}
    assert third_party == {"Third-party application threat"}


def test_user_countermeasure_list():
    user = user_countermeasures()
    assert len(user) == 6
    first, last = user[0].text, user[-1].text
    assert "rooted" in first and "jailbreak" in first
    assert "operating system" in last


def test_loaded_content_matches_data_file():
    raw = resources.files("bankscan").joinpath("data/knowledge.json").read_text("utf-8")
    doc = json.loads(raw)
    kb = load_knowledge_base()
    assert len(doc["rules"]) == 14
    for record in doc["rules"]:
        rule = RuleId(record["rule_id"])
        assert kb.threats[rule].threat_name == record["threat_name"]
        assert kb.threats[rule].description == record["threat_description"]
        assert kb.countermeasures[rule].developer_action == record["developer_countermeasure"]
        assert kb.backgrounds[rule] == record["background"]
    assert [u.text for u in kb.user_countermeasures] == doc["user_countermeasures"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda record: record.update(rule_id="R99"), "knowledge record 3 is malformed: 'R99' is not a valid RuleId"),
        (lambda record: record.pop("background"), "knowledge record 3 lacks field 'background'"),
    ],
)
def test_malformed_record_raises_knowledge_base_error_naming_its_index(tmp_path, monkeypatch, edit, message):
    doc = json.loads(resources.files("bankscan").joinpath("data/knowledge.json").read_text("utf-8"))
    edit(doc["rules"][3])
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "knowledge.json").write_text(json.dumps(doc), "utf-8")
    monkeypatch.setattr(knowledge, "resources", types.SimpleNamespace(files=lambda package: tmp_path))
    load_knowledge_base.cache_clear()
    try:
        with pytest.raises(KnowledgeBaseError) as info:
            load_knowledge_base()
    finally:
        load_knowledge_base.cache_clear()
    assert str(info.value) == message
