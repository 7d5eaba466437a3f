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


def _corner_homotopy(dm):
    """A nonzero degree +1 map that does respect generator corners: each
    generator goes to the first scalar basis element of its own corner one
    total degree up (zero when the corner is empty).  Used to produce
    genuinely different lifts of the same map."""
    from quiverhh.diagonal import HomotopyFamily
    from quiverhh.quiver import VERTICES
    from quiverhh.uniform import label_index, label_pair

    alg = dm.res.algebra
    labels, index = dm.res.labels, alg.basis_index

    def image(lab):
        m = lab.degree
        o, t = label_pair(lab)
        for a in range(m + 2):
            for g1 in labels(a):
                o1, t1 = label_pair(g1)
                if not alg.corners[(o, o1)]:
                    continue
                for g2 in labels(m + 1 - a):
                    o2, t2 = label_pair(g2)
                    if alg.corners[(t1, o2)] and alg.corners[(t2, t)]:
                        pick = (
                            label_index(g1),
                            label_index(g2),
                            index[alg.corners[(o, o1)][0]],
                            index[alg.corners[(t1, o2)][0]],
                            index[alg.corners[(t2, t)][0]],
                        )
                        return {pick: 1}
        return {}

    return HomotopyFamily(dm, dm.per_label(image, upward=False), {v: {} for v in VERTICES})


def _decode(owner, elem):
    """An element of a `Resolution` or a `TensorComplex` with its label
    numbers and path indices replaced by `Label` and `Path` objects: keys
    (Label, Path, Path) for a resolution element and (Label, Label, Path,
    Path, Path) for a tensor element."""
    res = getattr(owner, "res", owner)
    basis = res.algebra.basis
    label = lambda g: res.labels(g >> 3)[g & 7]
    out = {}
    for key, c in elem.items():
        if len(key) == 3:
            g, l, r = key
            out[(label(g), basis[l], basis[r])] = c
        else:
            g1, g2, l, m, r = key
            out[(label(g1), label(g2), basis[l], basis[m], basis[r])] = c
    return out


@pytest.fixture(scope="session")
def decode():
    """`decode(owner, elem)`: a resolution or tensor element of `owner` (a
    `Resolution` or a `TensorComplex`) keyed by `Label` and `Path` objects:
    the inverse of `uniform.label_index` and `FamilyAlgebra.basis_index`
    on each key."""
    return _decode


@pytest.fixture(scope="session")
def corner_homotopy():
    """`corner_homotopy(dm)`: the corner homotopy of a `DiagonalMaps`."""
    return _corner_homotopy
