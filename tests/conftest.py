"""One hypothesis profile for every property test: derandomized, so a run
is reproducible, with no deadline, since timings on a loaded host vary,
and no example database written to the working tree.  Each test still
sets its own ``max_examples``."""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("vertexset", derandomize=True, deadline=None, database=None)
    settings.load_profile("vertexset")
