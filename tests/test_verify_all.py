"""catalog.verify_all: the reports of rows 1-18 and the worked families in
job order, whichever process made each one.

A report must not depend on what ran before it in the same kernel scope,
since the forked worker runs an arbitrary share of the jobs after an
arbitrary history.  The worker tests fix the CPU count by patching
os.sched_getaffinity, and after each one no child process may be left."""

import functools
import os
import select

import pytest

from pdmlab import catalog
from pdmlab.catalog import WORKED_FAMILIES, verify_all, verify_entry, verify_worked_family
from pdmlab.symkernel import ZeroTestPolicy, kernel_scope

POLICY = ZeroTestPolicy(seed=271828)


@pytest.mark.parametrize("seed", [271828, 7])
def test_report_does_not_depend_on_order(seed):
    # each job alone in a fresh kernel scope, inside one scope in order, and
    # inside one scope in reverse order
    policy = ZeroTestPolicy(seed=seed)
    jobs = [functools.partial(verify_entry, i, policy) for i in range(1, 19)]
    jobs += [functools.partial(verify_worked_family, name, policy) for name in WORKED_FAMILIES]
    alone = []
    for job in jobs:
        with kernel_scope:
            alone.append(job().to_dict())
    with kernel_scope:
        in_order = [job().to_dict() for job in jobs]
    with kernel_scope:
        reversed_order = [job().to_dict() for job in reversed(jobs)][::-1]
    assert in_order == alone
    assert reversed_order == alone


@pytest.fixture
def forks(monkeypatch):
    """cpus(n) makes n CPUs available to verify_all; the returned list
    counts the os.fork calls made in this process.  At teardown no child
    of this process may be left, running or unreaped."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return calls

    yield cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def serial():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        return [rep.to_dict() for rep in verify_all(POLICY, worked=True)]


def _patch_rows(monkeypatch, in_worker, in_parent=None):
    """Replace catalog.verify_entry by one that calls in_worker(eid) first
    when it runs in a forked worker, and in_parent(eid) in this process."""
    parent = os.getpid()
    real = catalog.verify_entry

    def verify(eid, policy):
        hook = in_worker if os.getpid() != parent else in_parent
        if hook:
            hook(eid)
        return real(eid, policy)

    monkeypatch.setattr(catalog, "verify_entry", verify)


def _wait_for(fd):
    """Block until fd can be read: the worker has reached its hook."""
    assert select.select([fd], [], [], 60)[0], "the worker never reached its hook"


def test_one_cpu_runs_serially_and_two_fork_the_same_reports(forks, serial):
    calls = forks(1)
    assert [rep.to_dict() for rep in verify_all(POLICY, worked=True)] == serial
    assert calls == []
    forks(2)
    assert [rep.to_dict() for rep in verify_all(POLICY, worked=True)] == serial
    assert calls == [1]
    assert len(serial) == 18 + len(WORKED_FAMILIES)


def test_job_raising_in_the_worker_runs_again_in_the_parent(forks, serial, monkeypatch):
    reached_r, reached_w = os.pipe()

    def fail(eid):
        os.write(reached_w, b"x")
        raise RuntimeError(f"row {eid} broke in the worker")

    # the parent's first job waits for the worker's first failure
    _patch_rows(monkeypatch, fail, lambda eid: _wait_for(reached_r))
    forks(2)
    try:
        assert [rep.to_dict() for rep in verify_all(POLICY, worked=True)] == serial
    finally:
        os.close(reached_r)
        os.close(reached_w)


def test_job_raising_everywhere_raises_what_the_serial_loop_raises(forks, monkeypatch):
    def fail(eid):
        if eid in (5, 9):
            raise ValueError(f"row {eid} cannot be verified")

    _patch_rows(monkeypatch, fail, fail)
    raised = []
    for cpus in (1, 2):
        calls = forks(cpus)
        with pytest.raises(ValueError) as exc:
            verify_all(POLICY, worked=True)
        raised.append((exc.type, str(exc.value)))
    assert calls == [1]
    assert raised == [(ValueError, "row 5 cannot be verified")] * 2


def test_worker_that_exits_mid_run_loses_no_report(forks, serial, monkeypatch):
    reached_r, reached_w = os.pipe()
    seen = []

    def exit_on_second_job(eid):
        seen.append(eid)
        if len(seen) == 2:
            os.write(reached_w, b"x")
            os._exit(3)

    _patch_rows(monkeypatch, exit_on_second_job, lambda eid: _wait_for(reached_r))
    forks(2)
    try:
        assert [rep.to_dict() for rep in verify_all(POLICY, worked=True)] == serial
    finally:
        os.close(reached_r)
        os.close(reached_w)


class _Stop(BaseException):
    pass


def test_parent_that_raises_kills_and_reaps_the_worker(forks, monkeypatch):
    # the worker waits in its first job and, if it is still alive after
    # 20 s, writes to `survived` and ends; the parent's first job raises
    # once the worker is waiting
    reached_r, reached_w = os.pipe()
    survived_r, survived_w = os.pipe()

    def wait(eid):
        os.write(reached_w, b"x")
        select.select([], [], [], 20)
        os.write(survived_w, b"x")
        os._exit(0)

    def stop(eid):
        _wait_for(reached_r)
        raise _Stop

    _patch_rows(monkeypatch, wait, stop)
    forks(2)
    try:
        with pytest.raises(_Stop):
            verify_all(POLICY)
        assert not select.select([survived_r], [], [], 0)[0]
    finally:
        for fd in (reached_r, reached_w, survived_r, survived_w):
            os.close(fd)
