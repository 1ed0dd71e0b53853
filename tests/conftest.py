"""Test-session settings shared by every test module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so two runs of one tree try the same examples and a property that
fails once fails every time. Each test's own ``@settings(max_examples=...)``
still decides how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
