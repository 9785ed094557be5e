"""Hypothesis profile shared by the property suites: derandomized, so every
run draws the same examples, with no per-example deadline and a bounded
example count so the suites stay cheap."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "sylres",
    derandomize=True,
    deadline=None,
    max_examples=30,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("sylres")
