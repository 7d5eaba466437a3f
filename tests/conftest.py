import pytest

from quiverhh import Pipeline, RunConfig


@pytest.fixture(scope="session")
def pipes():
    """Shared pipelines per family index (expensive state: build once)."""
    return {
        0: Pipeline(RunConfig(n=0, max_degree=12)),
        1: Pipeline(RunConfig(n=1, max_degree=9)),
        2: Pipeline(RunConfig(n=2, max_degree=9)),
    }


@pytest.fixture(scope="session")
def solved_families(pipes):
    """Solved diagonal lifts, verified through their build degree."""
    out = {}
    for n, pipe in pipes.items():
        fam = pipe.diagonal.solved_family()
        pipe.diagonal.verify_squares(fam, pipe.config.max_degree)
        out[n] = fam
    return out
