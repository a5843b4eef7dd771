"""Shared fixtures, and one ACCEPTANCE line per criterion after the run."""

import pytest

import powerstable.groebner
import powerstable.ideals
from acceptance_log import RESULTS


@pytest.fixture
def pair_calls(monkeypatch):
    """A list that grows by one per S- or G-polynomial the engine forms."""
    calls = []
    for name in ("s_polynomial", "g_polynomial"):
        real = getattr(powerstable.groebner, name)

        def counting(f, g, order=None, real=real):
            calls.append((f, g))
            return real(f, g, order)

        monkeypatch.setattr(powerstable.groebner, name, counting)
    return calls


@pytest.fixture
def bases(monkeypatch):
    """A list that grows by the ring of each Groebner basis the ideal layer
    computes."""
    computed = []
    real = powerstable.ideals.groebner_basis

    def counting(gens, order=None, budget=None):
        gb = real(gens, order, budget)
        computed.append(gb.ring)
        return gb

    monkeypatch.setattr(powerstable.ideals, "groebner_basis", counting)
    return computed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(RESULTS):
        terminalreporter.write_line(RESULTS[n])
