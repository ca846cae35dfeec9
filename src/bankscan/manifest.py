"""Structured view of a decoded AndroidManifest.xml.

Maps the raw AXML element tree onto the handful of facts the detection
rules consult: package identity, the target SDK, the backup flag, the four
component kinds with the actions of their intent filters, and declared
permissions with their protection levels. Tri-state attributes distinguish
an explicit ``false`` from the attribute being absent, because several
Android defaults depend on exactly that.
"""

from __future__ import annotations

from typing import NamedTuple

from .axml import AxmlDocument, AxmlElement, AxmlError, ResourceRef

COMPONENT_KINDS = ("activity", "service", "receiver", "provider")

# Content providers default to exported below this target SDK.
_PROVIDER_EXPORT_DEFAULT_SDK = 17

_PROTECTION_BY_CODE = {
    0: "normal",
    1: "dangerous",
    2: "signature",
    3: "signatureOrSystem",
}
_PROTECTION_NAMES = set(_PROTECTION_BY_CODE.values())


class ManifestError(AxmlError):
    """Base class for manifest-model failures."""


class NotAManifestError(ManifestError):
    """Document root element is not <manifest>."""


class MissingPackageNameError(ManifestError):
    """Manifest has no (or an empty) package attribute."""


class ComponentDecl(NamedTuple):
    kind: str
    name: str
    exported: bool | None
    permission: str | None
    intent_filters: tuple[tuple[str, ...], ...]  # each filter's action names


class PermissionDecl(NamedTuple):
    name: str
    protection_level: str  # normal | dangerous | signature | signatureOrSystem | unset


class ManifestModel(NamedTuple):
    package_name: str
    target_sdk: int | None
    allow_backup: bool | None
    components: tuple[ComponentDecl, ...]
    declared_permissions: tuple[PermissionDecl, ...]


def effective_exported(component: ComponentDecl, target_sdk: int | None) -> bool:
    """Resolve the Android export default for a component.

    Explicit android:exported always wins. Otherwise activities, services
    and receivers export iff they declare an intent filter, while providers
    follow the SDK rule: exported by default below target SDK 17, private
    from 17 on. An absent target SDK takes the conservative (exported)
    branch.
    """
    if component.exported is not None:
        return component.exported
    if component.kind == "provider":
        if target_sdk is None:
            return True
        return target_sdk < _PROVIDER_EXPORT_DEFAULT_SDK
    return len(component.intent_filters) > 0


def _as_bool(value) -> bool | None:
    # Exotic encodings count as unset rather than guessed.
    return value if isinstance(value, bool) else None


def _bool_attr(elem: AxmlElement, name: str) -> bool | None:
    value = elem.attr(name)
    if isinstance(value, ResourceRef):
        import logging  # only this fallback logs, so a scan imports logging only when it meets one

        logging.getLogger(__name__).warning(
            "boolean attribute %s holds resource reference 0x%08x; treating as unset",
            name,
            value.resource_id,
        )
        return None
    return _as_bool(value)


def _as_int(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.isdecimal():  # "²" is a digit, but int() cannot read it
        try:
            return int(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            return None
    return None


def _as_str(value) -> str | None:
    return value if isinstance(value, str) else None


def _protection_level(value) -> str:
    if isinstance(value, bool) or value is None:
        return "unset"
    if isinstance(value, int):
        return _PROTECTION_BY_CODE.get(value & 0xF, "unset")
    if isinstance(value, str) and value in _PROTECTION_NAMES:
        return value
    return "unset"


def _intent_filter(elem: AxmlElement) -> tuple[str, ...]:
    names = [_as_str(child.attr("name")) for child in elem.children if child.name == "action"]
    return tuple([name for name in names if name])


def _component(elem: AxmlElement) -> ComponentDecl:
    return tuple.__new__(ComponentDecl, (
        elem.name,
        _as_str(elem.attr("name")) or "(unnamed)",
        _bool_attr(elem, "exported"),
        _as_str(elem.attr("permission")),
        tuple([_intent_filter(f) for f in elem.children if f.name == "intent-filter"]),
    ))


def build_manifest_model(doc: AxmlDocument) -> ManifestModel:
    """Project a decoded manifest document onto the analysis model.

    One pass over the children of ``<manifest>``: the last ``uses-sdk`` and
    the backup flag of the last ``application`` win; the components of every
    ``application`` and the declared permissions keep document order.
    """
    root = doc.root
    if root.name != "manifest":
        raise NotAManifestError(f"root element is <{root.name}>, not <manifest>")
    package = _as_str(root.attr("package", namespace=None))
    if not package:
        raise MissingPackageNameError("manifest has no package name")

    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    target_sdk = allow_backup = None
    components: list[ComponentDecl] = []
    permissions: list[PermissionDecl] = []
    for child in root.children:
        tag = child.name
        if tag == "application":
            allow_backup = _bool_attr(child, "allowBackup")
            components += [_component(c) for c in child.children if c.name in COMPONENT_KINDS]
        elif tag == "uses-sdk":
            target_sdk = _as_int(child.attr("targetSdkVersion"))
        elif tag == "permission":
            name = _as_str(child.attr("name")) or "(unnamed)"
            permissions.append(make(PermissionDecl, (name, _protection_level(child.attr("protectionLevel")))))

    return make(ManifestModel, (
        package,
        target_sdk,
        allow_backup,
        tuple(components),
        tuple(permissions),
    ))
