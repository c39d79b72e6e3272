"""Deliberately broken ownership code, seeded for the lint gate.

``tests/analysis/test_lint_cli.py`` lints this file with
``--no-default-excludes --expect OWN001 --expect OWN002 --expect
OWN003`` to prove the checker still detects the canonical
frame-ownership bugs.  Never import this module; never "fix" it.
"""

from __future__ import annotations


def use_after_transmit(transport, pool):  # OWN001
    frame = pool.alloc(128)
    transport.transmit(frame)
    return frame.payload  # read through a frame the transport now owns


def missing_release_on_early_return(pool, flag):  # OWN002
    frame = pool.alloc(64)
    if flag:
        return None  # leaks: this path never releases `frame`
    frame.release()
    return None


def missing_release_on_raise(pool, writer):  # OWN002
    frame = pool.alloc(64)
    if writer is None:
        raise ValueError("no writer")  # leaks `frame`
    writer(frame)
    frame.release()


def double_release(pool):  # OWN003
    block = pool.alloc(32)
    block.release()
    block.release()
