"""Every test starts with an emptied plan memo.

``potentials._plan`` keeps each thread's last evaluation plan, keyed by
the domain, N and the bits of x, but not by the module state a test may
patch (``NEAR_FRACTION``, ``geometry._cap_levels``, a counted builder).
A plan left by an earlier test at the same point would serve a test that
patched that state, and the patch would never reach it.  A test that
evaluates one point under several patches empties the memo inside each
patch as well.
"""

import threading

import pytest

from volpot import potentials


@pytest.fixture(autouse=True)
def _empty_plan_memo(monkeypatch):
    monkeypatch.setattr(potentials, "_last", threading.local())
