"""Shared test configuration: hypothesis profiles.

Tier-1 runs each property test at its own small example count.  CI's
``differential`` job reruns the engine strand differential with
``--hypothesis-profile ci`` for a deeper search.
"""

try:
    from hypothesis import settings
except ImportError:  # property-based modules skip themselves
    pass
else:
    settings.register_profile("ci", max_examples=300, deadline=None)
