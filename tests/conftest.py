"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the draw; each test keeps its own ``max_examples``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
