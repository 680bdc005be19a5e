"""The calls at one point share its plan.

Every public evaluation takes the plan of its point x from
``potentials._plan``: each thread keeps its last plan, keyed by the domain,
N and the bits of x, and the value, gradient, Hessian and layer terms at x
reuse it whatever their kernel.  A shared plan must never change a result:
every quantity keeps the bits it has with an emptied memo in any call
order, a caller that writes into its x after a call gets the plan of the
new point, and threads that evaluate interleaved points keep their own
plans and the serial bits.
"""

import sys
import threading

import numpy as np
import pytest

from volpot import (cosine_star, disk, get_preset, helmholtz_fundamental,
                    laplace_fundamental, make_ball, single_layer,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative)
from volpot import potentials
from volpot.schauder import NegativeExponentDensity

ONE = get_preset("one")
BUMP = get_preset("bump")
STAR = cosine_star([1, 0, 0, 0.2])
BALL = make_ball(3, [0.0, 0.0, 0.0], 1.0)


def _points(domain, e):
    """The domain's boundary point along the unit vector e from the
    origin, times 1 - 1e-3 and 1 + 1e-3 (near it, inside and outside) and
    0.7 (inside, past the near/far switch)."""
    if domain.kind == "ball":
        b = domain.radius * e
    else:
        b = domain.rho(np.arctan2(e[1], e[0])) * e
    return [b * (1.0 - s) for s in (1e-3, -1e-3, 0.3)]


CASES = {
    "disk": (disk(), 24, _points(disk(), np.array([0.6, 0.8]))),
    "cosine_star": (STAR, 24, _points(STAR, np.array([0.8, -0.6]))),
    "ball3d": (BALL, 12, _points(BALL, np.array([2.0, -1.0, 2.0]) / 3.0)),
}


def _calls(domain, N, x):
    """Every quantity at x with the Laplace and the screened kernels, each
    as a zero-argument call: values and gradients of a constant and of a
    smooth density, the Hessian at an interior point, the single layer
    and the negative-exponent density."""
    n = domain.dim
    nd = NegativeExponentDensity((BUMP,) + (ONE, BUMP, ONE)[:n], 1.0, 0.0)
    out = []
    for fs in (laplace_fundamental(n), helmholtz_fundamental(n, 1.0)):
        for f in (ONE, BUMP):
            out.append(lambda fs=fs, f=f: volume_potential(fs, domain, f, x,
                                                           N))
            out.append(lambda fs=fs, f=f: volume_potential_gradient(
                fs, domain, f, x, N))
            if domain.classify(x) > 0:
                out.append(lambda fs=fs, f=f: volume_potential_hessian(
                    fs, domain, f, x, N))
        out.append(lambda fs=fs: single_layer(fs, domain, BUMP, x, N))
        out.append(lambda fs=fs: volume_potential_negative(fs, domain, nd, x,
                                                           N))
    return out


def _bits(value):
    return np.asarray(value).tobytes()


def _cold(monkeypatch, call):
    """The bits of call() with an emptied memo."""
    monkeypatch.setattr(potentials, "_last", threading.local())
    return _bits(call())


@pytest.mark.parametrize("case", CASES)
def test_any_call_order_keeps_the_bits_of_an_emptied_memo(case, monkeypatch):
    # each point's calls in order and in reverse, and the points visited
    # in turn (where every call misses), against a call per emptied memo
    domain, N, points = CASES[case]
    calls = [_calls(domain, N, x) for x in points]
    cold = [[_cold(monkeypatch, c) for c in at_x] for at_x in calls]
    monkeypatch.setattr(potentials, "_last", threading.local())
    for at_x, want in zip(calls, cold):
        assert [_bits(c()) for c in at_x] == want
        assert [_bits(c()) for c in at_x[::-1]] == want[::-1]
    for k in range(max(map(len, calls))):
        for at_x, want in zip(calls, cold):
            if k < len(at_x):
                assert _bits(at_x[k]()) == want[k]


@pytest.mark.parametrize("case", CASES)
def test_writing_into_x_after_a_call_takes_the_new_points_plan(case,
                                                               monkeypatch):
    # the plan's x is its own read-only copy of the caller's bits, so an
    # array written in place between calls is a new key, and the old
    # plan's rays keep their origin
    domain, N, (a, b, _) = CASES[case]
    fs = laplace_fundamental(domain.dim)
    want = _cold(monkeypatch, lambda: volume_potential(fs, domain, BUMP, b,
                                                       N))
    x = a.copy()
    before = volume_potential(fs, domain, BUMP, x, N)
    plan = potentials._last.plan
    assert not plan.x.flags.writeable
    assert not np.shares_memory(plan.x, x)
    assert plan.x.tobytes() == a.tobytes()
    x[:] = b
    assert _bits(volume_potential(fs, domain, BUMP, x, N)) == want
    assert potentials._last.plan is not plan
    assert plan.x.tobytes() == a.tobytes()
    x[:] = a
    assert volume_potential(fs, domain, BUMP, x, N) == before


def test_threads_at_interleaved_points_keep_their_plans_and_the_serial_bits(
        monkeypatch):
    # four threads on the cores there are take turns, one call each, at
    # four points of one domain, with the interpreter switching threads
    # every microsecond: after the others' calls each finds its own last
    # plan, and every result has the serial bits
    domain, N, points = CASES["cosine_star"]
    points = points + _points(domain, np.array([-0.6, 0.8]))[:1]
    work = [_calls(domain, N, x) for x in points]
    serial = [[_cold(monkeypatch, c) for c in calls] for calls in work]
    steps = min(map(len, work))
    turn = threading.Barrier(len(points), timeout=60)
    got = [[] for _ in points]
    own = [[] for _ in points]
    errors = []

    def run(k):
        try:
            for c in work[k][:steps]:
                got[k].append(_bits(c()))
                turn.wait()
                own[k].append(potentials._last.plan.x.tobytes()
                              == points[k].tobytes())
                turn.wait()
        except Exception as exc:    # reported by the main thread
            errors.append(exc)
            turn.abort()

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for k in range(len(points)):
        assert got[k] == serial[k][:steps]
        assert own[k] == [True] * steps
