"""Deliberately broken *interprocedural* ownership code, seeded.

Every bug here is invisible to a single-function checker: the release
or transfer happens inside a same-module helper, so only the
project-wide ownership summaries (:mod:`tools.lint.callgraph`) can
see it.  ``tests/analysis/test_lint_cli.py`` lints this file with
``--no-default-excludes --expect OWN001 --expect OWN002 --expect
OWN003`` to prove the summaries still propagate.  Never import this module; never "fix" it.
"""

from __future__ import annotations


def _ship(transport, frame):
    """Summary: transmits ``frame`` (ownership moves to the PT)."""
    transport.transmit(frame)


def _drop(frame):
    """Summary: releases ``frame``."""
    frame.release()


def _inspect(frame, log):
    """Summary: borrows ``frame`` — the caller still owns it."""
    log.append(frame.total_size)


def use_after_ship_helper(transport, pool):  # OWN001 (via _ship summary)
    frame = pool.alloc(128)
    _ship(transport, frame)
    return frame.payload  # the helper already handed it to the PT


def double_release_via_helper(pool):  # OWN003 (via _drop summary)
    frame = pool.alloc(64)
    _drop(frame)
    frame.release()  # the helper already released it


def leak_after_borrow_helper(pool, log):  # OWN002 (borrow is not release)
    frame = pool.alloc(64)
    _inspect(frame, log)
    return None  # nobody ever releases `frame`
