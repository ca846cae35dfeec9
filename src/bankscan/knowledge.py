"""Threat and countermeasure knowledge base.

The text lives here, apart from ``rules.py``, so wording fixes never touch
rule logic. Every rule has exactly one record: its threat (threat names are
shared between rules where the same threat applies), its developer
countermeasure and the background a report prints. The global
user-countermeasure list has six entries. The table is two module constants,
checked once at import: a table missing a rule, giving one twice, or holding a
text that is not a non-empty ``str`` raises ``KnowledgeBaseError``.
``tests/test_knowledge.py`` drives those checks and pins the text.
"""

from __future__ import annotations

from typing import NamedTuple

from .rules import RuleId


class RuleKnowledge(NamedTuple):
    """One rule's knowledge record."""

    threat_name: str
    threat_description: str
    developer_countermeasure: str
    background: str


class KnowledgeBase(NamedTuple):
    rules: dict[RuleId, RuleKnowledge]
    user_countermeasures: tuple[str, ...]


class KnowledgeBaseError(Exception):
    """The knowledge table is missing entries or malformed."""


def load_knowledge_base() -> KnowledgeBase:
    """The knowledge base: one table, the same object on every call."""
    return _KNOWLEDGE_BASE


def _typed(value, kind: type, what: str):
    """``value``, which must be of type ``kind``; ``what`` names it in the error."""
    if type(value) is not kind:
        raise KnowledgeBaseError(f"{what} is {type(value).__name__}, not {kind.__name__}")
    return value


def _build(records, user_countermeasures) -> KnowledgeBase:
    """The knowledge base of ``(rule, record)`` pairs and the user texts, once each is checked."""
    rules: dict[RuleId, RuleKnowledge] = {}
    for i, (rule, record) in enumerate(_typed(records, tuple, "knowledge rules")):
        if type(rule) is not RuleId:
            raise KnowledgeBaseError(f"knowledge record {i} is keyed {rule!r}, not a RuleId")
        for field, text in zip(RuleKnowledge._fields, _typed(record, RuleKnowledge, f"knowledge record {i}")):
            if not _typed(text, str, f"knowledge record {i} field {field!r}"):
                raise KnowledgeBaseError(f"knowledge record {i} field {field!r} is empty")
        if rule in rules:
            raise KnowledgeBaseError(f"duplicate knowledge record for {rule.value}")
        rules[rule] = record

    missing = [r.value for r in RuleId if r not in rules]
    if missing:
        raise KnowledgeBaseError(f"knowledge data lacks entries for {missing}")

    user = _typed(user_countermeasures, tuple, "knowledge user_countermeasures")
    for i, text in enumerate(user):
        if not _typed(text, str, f"user countermeasure {i}"):
            raise KnowledgeBaseError(f"user countermeasure {i} is empty")
    if len(user) != 6:
        raise KnowledgeBaseError(f"expected 6 user countermeasures, found {len(user)}")
    return KnowledgeBase(rules, user)


# (rule, its record) in rule order; a dict literal would drop a repeated key silently.
_RULES: tuple[tuple[RuleId, RuleKnowledge], ...] = (
    (RuleId.R01, RuleKnowledge(
        threat_name="Lack of user awareness",
        threat_description=(
            "Most users are not aware of the different intents for services, so if the application is "
            "not correctly set, the user will not know it."
        ),
        developer_countermeasure="Always use explicit intent when starting a service.",
        background=(
            "A service started with an implicit intent names an action instead of a concrete "
            "component, so any installed app whose service matches the action can be handed the "
            "request. The app cannot guarantee which service responds."
        ),
    )),
    (RuleId.R02, RuleKnowledge(
        threat_name="Application malfunction",
        threat_description="Without properly configuring the application, unexpected actions can occur.",
        developer_countermeasure='Config "intent-filter" should have at least one "action."',
        background=(
            "An intent filter with no action element matches in unexpected ways and usually signals a "
            "misconfigured component; filters are expected to declare at least one action."
        ),
    )),
    (RuleId.R03, RuleKnowledge(
        threat_name="Third-party application threat",
        threat_description=(
            "There might be malicious applications on the device, and gaining access without "
            "permission could be harmful to the mobile banking application."
        ),
        developer_countermeasure=(
            'Set at least "signature" protectional Level permission or make it "false".'
        ),
        background=(
            "A content provider manages the app's repository data. When it is exported and not gated "
            "by a permission, any other app on the device can query or modify that data."
        ),
    )),
    (RuleId.R04, RuleKnowledge(
        threat_name="Unauthorized access",
        threat_description=(
            "If remote code execution is allowed, an attacker can access the application remotely "
            "without authorization."
        ),
        developer_countermeasure="Modify code to disallow remote code execution.",
        background=(
            "addJavascriptInterface exposes a Java object to every page loaded in the WebView. With "
            "untrusted content in the view, script can call into the host app and, on older platforms, "
            "reach arbitrary code."
        ),
    )),
    (RuleId.R05, RuleKnowledge(
        threat_name="Information leakage",
        threat_description="Getting IMEI and device ID might lead to information leakage.",
        developer_countermeasure='If the device ID is needed, use the "Installation" framework instead.',
        background=(
            "Reading the IMEI or device ID ties collected data to a stable hardware identifier and "
            "leaks device information to whoever receives it."
        ),
    )),
    (RuleId.R06, RuleKnowledge(
        threat_name="Third-party application threat",
        threat_description=(
            "If the protection-level permission is not set, others can register and receive messages "
            "for the application."
        ),
        developer_countermeasure=(
            'The app should declare the permission with the "android:protectionLevel" of "signature" '
            'or "signatureOrSystem" so that other apps cannot register and receive messages for this '
            'app. android:protectionLevel="signature" ensures that apps with request permission must '
            'be signed with the same certificate as the application that declared the permission.'
        ),
        background=(
            "A permission declared with protection level normal (or none at all) is granted to any "
            "requesting app, so it does not actually restrict who can talk to the components it "
            "guards."
        ),
    )),
    (RuleId.R07, RuleKnowledge(
        threat_name="Malware (malicious code)",
        threat_description="Malicious codes can be injected, thereby exploiting the system.",
        developer_countermeasure=(
            "This can be mitigated or prevented by disabling local file system access. (It is enabled "
            "by default)."
        ),
        background=(
            "WebView file access lets page content load file:// URLs. Injected script can then read "
            "local resources reachable by the app. File access is on unless explicitly disabled."
        ),
    )),
    (RuleId.R08, RuleKnowledge(
        threat_name="Cross-site Scripting threat",
        threat_description="It makes it prone to cross-site scripting attacks.",
        developer_countermeasure="Disable Webview Javascript.",
        background=(
            "JavaScript enabled in a WebView makes the embedded browser surface scriptable, which "
            "opens the door to cross-site scripting against the app's web content."
        ),
    )),
    (RuleId.R09, RuleKnowledge(
        threat_name="Platform manipulation",
        threat_description=(
            "Sometimes users \"root\" or \"jailbreak\" devices to gain higher privileges. "
            "Unfortunately, this can leak sensitive information from the application, so it is "
            "important to check for 'root' in systems where the mobile banking apps are installed."
        ),
        developer_countermeasure=(
            'There should be a code for checking for "root" or system privilege in the device.'
        ),
        background=(
            "On rooted or jailbroken devices the platform's sandbox guarantees no longer hold. Apps "
            "handling sensitive data are expected to detect root markers (su binaries, test-keys "
            "builds) and react."
        ),
    )),
    (RuleId.R10, RuleKnowledge(
        threat_name="Improper disposal of the device",
        threat_description=(
            "Improper device disposal with the installed application can lead to ADB backup falling "
            "into the wrong hands."
        ),
        developer_countermeasure="Disable ADB backup in an application.",
        background=(
            "With backups allowed, adb backup can extract the app's private data (tokens, credentials, "
            "cached documents) to a connected host without root."
        ),
    )),
    (RuleId.R11, RuleKnowledge(
        threat_name="Improper disposal of the device",
        threat_description=(
            "If the device is lost, sold, or stolen, the deleted sensitive information can be "
            "retrieved."
        ),
        developer_countermeasure='Do not use "file.delete()" to delete essential files.',
        background=(
            "File.delete() only unlinks a file; the underlying blocks survive and can be carved back "
            "out of flash storage, so discarded sensitive files remain recoverable."
        ),
    )),
    (RuleId.R12, RuleKnowledge(
        threat_name="Hacking",
        threat_description="When hacking occurs, it cannot be detected by the application.",
        developer_countermeasure=(
            "There should be a code in the application for checking package signature."
        ),
        background=(
            "An app that never inspects its own package signature cannot notice that it has been "
            "re-signed, so a tampered or repackaged build runs unnoticed."
        ),
    )),
    (RuleId.R13, RuleKnowledge(
        threat_name="Improper disposal of the device",
        threat_description=(
            "If the mobile banking application gets into the wrong hand, the attacker can easily "
            "screenshot sensitive information out of the application."
        ),
        developer_countermeasure=(
            "This application should have a code for preventing screenshot capturing."
        ),
        background=(
            "Without FLAG_SECURE on sensitive windows, any screen capture (by the user, another app, "
            "or the OS) can copy displayed account data."
        ),
    )),
    (RuleId.R14, RuleKnowledge(
        threat_name="Phishing through fake applications",
        threat_description=(
            "Criminals are fond of creating fake applications to deceive users into installing them, "
            "thereby stealing sensitive information from the user. Therefore, it is important to check "
            "the APK installer source to ascertain it is genuine."
        ),
        developer_countermeasure="The application should have a code for checking APK installer sources.",
        background=(
            "Checking the installer package name lets the app confirm it was installed from an "
            "expected store rather than side-loaded from a fake distribution channel."
        ),
    )),
)

_USER_COUNTERMEASURES: tuple[str, ...] = (
    (
        "Do not use mobile banking applications for jailbreak or rooted mobile devices: this will help "
        "prevent the threat of platform manipulation."
    ),
    (
        "Download mobile banking applications from trusted app stores: doing this will help reduce the "
        "risk of phishing through fake applications."
    ),
    (
        "Use mobile anti-virus applications: using updated anti-virus or anti-malware on the mobile "
        "phone can help prevent the execution of malicious codes on the device."
    ),
    (
        "Physically protect the mobile device: physically protecting the mobile device keeps it safe "
        "from criminals and third parties, thereby reducing the threat of improper disposal of devices "
        "that can lead to information leakage."
    ),
    (
        "Update mobile banking applications regularly: this will help the user have a better secured "
        "and updated version. Moreover, the updated version usually has some of the vulnerabilities "
        "fixed. Therefore, the likelihood of occurrence of threats like information leakage, "
        "cross-site scripting threat, unauthorized access, third party applications threat, and "
        "application manipulation will be reduced."
    ),
    (
        "Update mobile device's operating system: this will help tackle threats like hacking and "
        "application malfunction."
    ),
)

_KNOWLEDGE_BASE = _build(_RULES, _USER_COUNTERMEASURES)
