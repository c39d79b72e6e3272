"""Repo tools: checkers that guard this tree and ship with no package.

Run them from the repository root, e.g. ``python -m tools.lint src
tests examples tools``.
"""
