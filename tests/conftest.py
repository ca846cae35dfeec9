from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from bankscan.fixtures import (
    FixtureProfile,
    build_fixture,
    clean_profile,
    fleet_profiles,
    rule_oracle_corpus,
)
from bankscan.scanner import scan_bytes

Built = tuple[FixtureProfile, bytes]

# Hypothesis keeps its example database and caches under the working
# directory by default. Keep them in the checkout's ignored .hypothesis/,
# wherever the tests are run from.
set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".hypothesis")


def pytest_addoption(parser):
    parser.addoption(
        "--dump-fixtures",
        metavar="DIR",
        default=None,
        help="also write every generated fixture APK to DIR for manual inspection",
    )


@pytest.fixture(scope="session")
def corpus() -> list[Built]:
    return [(p, build_fixture(p)) for p in rule_oracle_corpus()]


@pytest.fixture(scope="session")
def fleet() -> list[Built]:
    return [(p, build_fixture(p)) for p in fleet_profiles()]


@pytest.fixture(scope="session")
def clean_apk() -> Built:
    p = clean_profile()
    return p, build_fixture(p)


@pytest.fixture(scope="session")
def fleet_scans(fleet):
    return [scan_bytes(data, profile.name) for profile, data in fleet]


@pytest.fixture(scope="session")
def fleet_dir(tmp_path_factory, fleet):
    d = tmp_path_factory.mktemp("fleet")
    for profile, data in fleet:
        (d / f"{profile.name}.apk").write_bytes(data)
    return d


@pytest.fixture(scope="session", autouse=True)
def _dump_fixtures(request, corpus, fleet, clean_apk):
    target = request.config.getoption("--dump-fixtures")
    if target:
        out = Path(target)
        out.mkdir(parents=True, exist_ok=True)
        for profile, data in [*corpus, *fleet, clean_apk]:
            (out / f"{profile.name}.apk").write_bytes(data)
