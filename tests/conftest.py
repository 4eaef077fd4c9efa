import sys

import pytest

from volent.hypgeom import regular_polygon


def pytest_terminal_summary(terminalreporter):
    # echo the acceptance verdict lines past output capture
    for name, mod in sys.modules.items():
        if name.endswith("test_acceptance"):
            lines = getattr(mod, "VERDICTS", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pentagon_q1():
    return regular_polygon(5, 2, (1, 1, 1, 1, 1))


@pytest.fixture(scope="session")
def pentagon_q2():
    return regular_polygon(5, 2, (2, 2, 2, 2, 2))


@pytest.fixture(scope="session")
def table_q1(pentagon_q1):
    return pentagon_q1.walls


@pytest.fixture(scope="session")
def table_q2(pentagon_q2):
    return pentagon_q2.walls
