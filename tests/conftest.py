from pathlib import Path

import pytest

import fmpsat as F

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ella_vtree():
    return F.parse_vtree((DATA / "ella.vtree").read_text())


@pytest.fixture(scope="session")
def ella_sdd(ella_vtree):
    return F.parse_sdd((DATA / "ella.sdd").read_text(), ella_vtree)


@pytest.fixture(scope="session")
def ella_obdd():
    return F.parse_obdd((DATA / "ella.obdd").read_text())


@pytest.fixture(scope="session")
def ella_instance():
    return F.parse_instance((DATA / "ella.inst").read_text())


@pytest.fixture(scope="session")
def ella_xpg(ella_obdd, ella_instance):
    return F.build_xpg_from_obdd(ella_obdd, ella_instance)


@pytest.fixture(scope="session")
def ella_sdd_clf(ella_sdd):
    return F.SddClassifier(ella_sdd)


@pytest.fixture(scope="session")
def ella_obdd_clf(ella_obdd):
    return F.ObddClassifier(ella_obdd)
