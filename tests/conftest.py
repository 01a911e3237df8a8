from hypothesis import settings

# Reproducible property tests: a fixed example sequence, no example
# database, and no per-example deadline, since wall time on a loaded host
# says nothing about correctness.  Each test sets only max_examples.
settings.register_profile("flicforq", derandomize=True, database=None, deadline=None)
settings.load_profile("flicforq")
