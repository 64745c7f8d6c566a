"""Hypothesis settings for the suite.

Under CI (the ``CI`` environment variable set), the ``ci`` profile prints the
``@reproduce_failure`` blob of a failing example, so a failure seen on one
numpy version can be replayed on another. Example counts and deadlines stay
those each test sets.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
