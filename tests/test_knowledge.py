import json

import pytest

from bankscan import knowledge
from bankscan.knowledge import KnowledgeBase, KnowledgeBaseError, RuleKnowledge, load_knowledge_base
from bankscan.rules import Finding, RuleId


def test_what_is_fixed_per_rule_is_stored_once():
    # A finding carries only what varies; its rule's row in RULES and its one
    # knowledge record, keyed as in the data file, hold the rest.
    assert Finding._fields == ("rule", "evidence")
    assert KnowledgeBase._fields == ("rules", "user_countermeasures")
    assert RuleKnowledge._fields == ("threat_name", "threat_description", "developer_countermeasure", "background")
    for record in _data_doc()["rules"]:
        assert tuple(record) == ("rule_id", *RuleKnowledge._fields)


def test_lookups_total_over_all_rules():
    kb = load_knowledge_base()
    for rule in RuleId:
        assert kb.rules[rule].threat_name
        assert kb.rules[rule].threat_description
        assert kb.rules[rule].developer_countermeasure
        assert kb.rules[rule].background


def test_threat_examples():
    rules = load_knowledge_base().rules
    assert rules[RuleId.R04].threat_name == "Unauthorized access"
    assert "without authorization" in rules[RuleId.R04].threat_description
    assert rules[RuleId.R08].threat_name == "Cross-site Scripting threat"
    assert "cross-site scripting" in rules[RuleId.R08].threat_description
    assert rules[RuleId.R14].threat_name == "Phishing through fake applications"
    assert "fake applications" in rules[RuleId.R14].threat_description


def test_countermeasure_examples():
    rules = load_knowledge_base().rules
    assert rules[RuleId.R01].developer_countermeasure == (
        "Always use explicit intent when starting a service."
    )
    assert rules[RuleId.R11].developer_countermeasure == (
        'Do not use "file.delete()" to delete essential files.'
    )
    assert 'android:protectionLevel="signature"' in rules[RuleId.R06].developer_countermeasure


def test_shared_threat_names():
    rules = load_knowledge_base().rules
    disposal = {rules[r].threat_name for r in (RuleId.R10, RuleId.R11, RuleId.R13)}
    assert disposal == {"Improper disposal of the device"}
    third_party = {rules[r].threat_name for r in (RuleId.R03, RuleId.R06)}
    assert third_party == {"Third-party application threat"}


def test_user_countermeasure_list():
    user = load_knowledge_base().user_countermeasures
    assert len(user) == 6
    first, last = user[0], user[-1]
    assert "rooted" in first and "jailbreak" in first
    assert "operating system" in last


def test_loaded_content_matches_data_file():
    doc = _data_doc()
    kb = load_knowledge_base()
    assert len(doc["rules"]) == 14
    for record in doc["rules"]:
        rule = RuleId(record["rule_id"])
        assert kb.rules[rule].threat_name == record["threat_name"]
        assert kb.rules[rule].threat_description == record["threat_description"]
        assert kb.rules[rule].developer_countermeasure == record["developer_countermeasure"]
        assert kb.rules[rule].background == record["background"]
    assert list(kb.user_countermeasures) == doc["user_countermeasures"]


def _data_doc():
    return json.loads(knowledge._DATA_PATH.read_text("utf-8"))


def _edited(edit):
    """The data file's text after ``edit`` changes its document."""
    doc = _data_doc()
    edit(doc)
    return json.dumps(doc)


def _load_text(tmp_path, monkeypatch, text):
    """Load the knowledge base from a data file holding ``text``."""
    path = tmp_path / "knowledge.json"
    path.write_text(text, "utf-8")
    monkeypatch.setattr(knowledge, "_DATA_PATH", path)
    load_knowledge_base.cache_clear()
    try:
        return load_knowledge_base()
    finally:
        load_knowledge_base.cache_clear()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda record: record.update(rule_id="R99"), "knowledge record 3 is malformed: 'R99' is not a valid RuleId"),
        (lambda record: record.pop("background"), "knowledge record 3 lacks field 'background'"),
    ],
)
def test_malformed_record_raises_knowledge_base_error_naming_its_index(tmp_path, monkeypatch, edit, message):
    with pytest.raises(KnowledgeBaseError) as info:
        _load_text(tmp_path, monkeypatch, _edited(lambda doc: edit(doc["rules"][3])))
    assert str(info.value) == message


def _set(doc, key, value):
    doc[key] = value


# (an edit of the data file's document, the message it raises)
_MALFORMED = {
    "no-schema-version": (lambda doc: doc.pop("schema_version"), "knowledge data lacks key 'schema_version'"),
    "schema-version-99": (lambda doc: _set(doc, "schema_version", 99), "knowledge schema_version is 99, not 1"),
    "schema-version-true": (lambda doc: _set(doc, "schema_version", True), "knowledge schema_version is True, not 1"),
    "unknown-key": (lambda doc: _set(doc, "extra", {}), "knowledge data has unknown keys ['extra']"),
    "no-rules": (lambda doc: doc.pop("rules"), "knowledge data lacks key 'rules'"),
    "no-user-countermeasures": (
        lambda doc: doc.pop("user_countermeasures"), "knowledge data lacks key 'user_countermeasures'"
    ),
    "rules-object": (lambda doc: _set(doc, "rules", {}), "knowledge rules is dict, not list"),
    "record-list": (lambda doc: _set(doc["rules"], 2, ["R03"]), "knowledge record 2 is list, not dict"),
    "record-string": (lambda doc: _set(doc["rules"], 0, "R01"), "knowledge record 0 is str, not dict"),
    "record-text-number": (
        lambda doc: _set(doc["rules"][5], "threat_name", 5), "knowledge record 5 field 'threat_name' is int, not str"
    ),
    "record-text-null": (
        lambda doc: _set(doc["rules"][13], "background", None),
        "knowledge record 13 field 'background' is NoneType, not str",
    ),
    "record-unknown-key": (
        lambda doc: _set(doc["rules"][6], "threat_nmae", "typo"), "knowledge record 6 has unknown keys ['threat_nmae']"
    ),
    "duplicate-record": (lambda doc: _set(doc["rules"], 4, doc["rules"][1]), "duplicate knowledge record for R02"),
    "missing-entries": (lambda doc: doc["rules"].pop(), "knowledge data lacks entries for ['R14']"),
    "user-countermeasure-number": (
        lambda doc: _set(doc["user_countermeasures"], 2, 5), "user countermeasure 2 is int, not str"
    ),
    "user-countermeasures-string": (
        lambda doc: _set(doc, "user_countermeasures", "sixchr"), "knowledge user_countermeasures is str, not list"
    ),
    "five-user-countermeasures": (
        lambda doc: doc["user_countermeasures"].pop(), "expected 6 user countermeasures, found 5"
    ),
    "seven-user-countermeasures": (
        lambda doc: doc["user_countermeasures"].append("x"), "expected 6 user countermeasures, found 7"
    ),
}


@pytest.mark.parametrize("edit, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_document_raises_knowledge_base_error(tmp_path, monkeypatch, edit, message):
    with pytest.raises(KnowledgeBaseError) as info:
        _load_text(tmp_path, monkeypatch, _edited(edit))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps([_data_doc()]), "knowledge data is list, not dict"),
        ("{", "knowledge data is not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ],
    ids=["document-list", "not-json"],
)
def test_a_data_file_that_is_no_json_object_raises_knowledge_base_error(tmp_path, monkeypatch, text, message):
    with pytest.raises(KnowledgeBaseError) as info:
        _load_text(tmp_path, monkeypatch, text)
    assert str(info.value) == message


def test_an_unedited_copy_loads_as_the_packaged_file(tmp_path, monkeypatch):
    assert _load_text(tmp_path, monkeypatch, _edited(lambda doc: None)) == load_knowledge_base()
