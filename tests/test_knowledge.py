import hashlib

import pytest

from bankscan import knowledge
from bankscan.knowledge import KnowledgeBase, KnowledgeBaseError, RuleKnowledge, load_knowledge_base
from bankscan.rules import Finding, RuleId


def test_what_is_fixed_per_rule_is_stored_once():
    # A finding carries only what varies; its rule's row in RULES and its one
    # knowledge record hold the rest.
    assert Finding._fields == ("rule", "evidence")
    assert KnowledgeBase._fields == ("rules", "user_countermeasures")
    assert RuleKnowledge._fields == ("threat_name", "threat_description", "developer_countermeasure", "background")


def test_lookups_total_over_all_rules():
    # Exactly one record per rule, keyed by the RuleId itself, in rule order,
    # and every field a non-empty str.
    kb = load_knowledge_base()
    assert type(kb) is KnowledgeBase and type(kb.rules) is dict
    assert list(kb.rules) == list(RuleId) and all(type(rule) is RuleId for rule in kb.rules)
    for record in kb.rules.values():
        assert type(record) is RuleKnowledge
        assert all(type(text) is str and text for text in record)


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
    assert type(user) is tuple and len(user) == 6
    assert all(type(text) is str and text for text in user)
    first, last = user[0], user[-1]
    assert "rooted" in first and "jailbreak" in first
    assert "operating system" in last


def test_knowledge_text_pinned():
    # sha256 over every record's four fields in rule order, then the six user
    # countermeasures, each text followed by a NUL. A deliberate wording change
    # needs a new pin and new report byte pins.
    kb = load_knowledge_base()
    texts = [text for rule in RuleId for text in kb.rules[rule]] + list(kb.user_countermeasures)
    digest = hashlib.sha256("".join(text + "\0" for text in texts).encode("utf-8")).hexdigest()
    assert (len(texts), digest) == (62, "8efee0adad97a691c3163bec12a657c734d53801a4568556a735cf1d09e37991")


def _put(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index + 1 :]


def _field(rules: tuple, index: int, **change) -> tuple:
    """``rules`` with record ``index``'s fields changed."""
    rule, record = rules[index]
    return _put(rules, index, (rule, record._replace(**change)))


def _build_edited(edit) -> KnowledgeBase:
    """The knowledge base built from the module's table after ``edit(rules, user)`` returns a changed copy."""
    return knowledge._build(*edit(knowledge._RULES, knowledge._USER_COUNTERMEASURES))


def test_an_unedited_copy_loads_as_the_packaged_file():
    assert _build_edited(lambda rules, user: (rules, user)) == load_knowledge_base()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pair: ("R99", pair[1]), "knowledge record 3 is keyed 'R99', not a RuleId"),
        (lambda pair: (pair[0], pair[1]._replace(background="")), "knowledge record 3 field 'background' is empty"),
    ],
)
def test_malformed_record_raises_knowledge_base_error_naming_its_index(edit, message):
    with pytest.raises(KnowledgeBaseError) as info:
        _build_edited(lambda rules, user: (_put(rules, 3, edit(rules[3])), user))
    assert str(info.value) == message


# (an edit of the table, the message it raises)
_MALFORMED = {
    "rules-object": (lambda rules, user: (dict(rules), user), "knowledge rules is dict, not tuple"),
    "record-list": (
        lambda rules, user: (_put(rules, 2, (RuleId.R03, list(rules[2][1]))), user),
        "knowledge record 2 is list, not RuleKnowledge",
    ),
    "record-string": (
        lambda rules, user: (_put(rules, 0, (RuleId.R01, "R01")), user), "knowledge record 0 is str, not RuleKnowledge"
    ),
    "record-text-number": (
        lambda rules, user: (_field(rules, 5, threat_name=5), user),
        "knowledge record 5 field 'threat_name' is int, not str",
    ),
    "record-text-null": (
        lambda rules, user: (_field(rules, 13, background=None), user),
        "knowledge record 13 field 'background' is NoneType, not str",
    ),
    "duplicate-record": (lambda rules, user: (_put(rules, 4, rules[1]), user), "duplicate knowledge record for R02"),
    "missing-entries": (lambda rules, user: (rules[:-1], user), "knowledge data lacks entries for ['R14']"),
    "user-countermeasure-number": (
        lambda rules, user: (rules, _put(user, 2, 5)), "user countermeasure 2 is int, not str"
    ),
    "user-countermeasure-empty": (lambda rules, user: (rules, _put(user, 0, "")), "user countermeasure 0 is empty"),
    "user-countermeasures-string": (
        lambda rules, user: (rules, "sixchr"), "knowledge user_countermeasures is str, not tuple"
    ),
    "five-user-countermeasures": (
        lambda rules, user: (rules, user[:-1]), "expected 6 user countermeasures, found 5"
    ),
    "seven-user-countermeasures": (
        lambda rules, user: (rules, user + ("x",)), "expected 6 user countermeasures, found 7"
    ),
}


@pytest.mark.parametrize("edit, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_document_raises_knowledge_base_error(edit, message):
    with pytest.raises(KnowledgeBaseError) as info:
        _build_edited(edit)
    assert str(info.value) == message
