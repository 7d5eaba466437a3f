"""The algebra family: path algebra of the quiver modulo one ideal per n.

For each n >= 0 the ideal is generated by one binomial and four monomial
relations; the rewriting system orients the binomial so that the detour
word b0*b1 rewrites into the long a-cycle word:

    b0 b1          ->  (a0 a1 a2)^n a0 a1
    (a1 a2 a0)^n a1 a2  ->  0
    (a2 a0 a1)^n a2 a0  ->  0
    b1 a2          ->  0
    a2 b0          ->  0

Every rule either kills a word or strictly lowers the number of b-arrows,
so rewriting terminates, and each path normalises to a single path or to
zero (no coefficients ever appear).  The rules are applied by substring
search on the text of a word, its two-character arrow tags joined
(`normal_form_path`), which is split back into tags only when a rule
rewrote it.  The surviving normal forms are the monomial basis.  It is
found by one walk from the trivial paths, which rewrites each basis
path times each arrow out of its target once; a word that is its own
normal form is the next basis path.  No basis path is longer than the
detour replacement (3n + 2 arrows), and a walk that finds a longer one
stops with a ValueError.  Rather than by a confluence
proof, the basis size is certified against a length-truncated
row-reduction oracle (`oracle_quotient_dim`), which `cli.cmd_algebra`
runs on every `algebra` and `report` run.
"""

from __future__ import annotations

from .linalg import QQ, SparseEchelon
from .quiver import ARROW_SOURCE, ARROWS, VERTICES, Path, a_cycle, compose, path_sort_key, trivial
from .uniform import Degrees


class FamilyAlgebra:
    """The member with index n over a chosen field: its monomial basis,
    the rewriting rules, and the tables of products of basis paths.

    `basis` is sorted by `path_sort_key`, and `basis_index` inverts it.
    `corners[(u, v)]` lists the basis paths from u to v.  The tables the
    resolution reads are on basis indices: `paths_from[v]` and
    `paths_into[v]` list the indices of the paths out of and into vertex
    v, and `from_index[i]` and `into_index[i]` are the position of path i
    in those lists.  The walk that finds the basis also fills the arrow
    steps: `splits[j]` is (index of basis[j] without its last arrow, that
    arrow), or None for a trivial path, and `steps[k][tag]`, for each
    arrow out of the target of basis[k], is the index of the normal form
    of basis[k] times that arrow, or None when it vanishes.  The one memo
    of products is `product_rows`: `product_rows[i][j]` is the index of
    basis[i] * basis[j], or None when it vanishes.  A row is filled the
    first time it is read, by arrow steps over prefixes (`_product_row`).
    """

    def __init__(self, n, field=QQ):
        if n < 0:
            raise ValueError("family index must be >= 0")
        self.n = n
        self.field = field
        # the rules are on the text of a word: its arrow tags joined
        self.kill_words = (
            "".join(a_cycle(1, 3 * n + 2).arrows),
            "".join(a_cycle(2, 3 * n + 2).arrows),
            "b1a2",
            "a2b0",
        )
        self.detour = "b0b1"
        self.detour_replacement = "".join(a_cycle(0, 3 * n + 2).arrows)
        # a path with a reducible prefix is reducible, so the walk meets
        # every irreducible path; `rewritten[p][tag]` is the normal form of
        # p times the arrow
        found, rewritten = [trivial(v) for v in VERTICES], {}
        for p in found:
            rewritten[p] = step = {}
            for tag in ARROWS:
                if ARROW_SOURCE[tag] == p.target:
                    word = Path(p.source, p.arrows + (tag,))
                    step[tag] = r = self.normal_form_path(word)
                    if r == word:
                        if len(word.arrows) > 3 * n + 2:
                            raise ValueError(
                                f"irreducible path {word} is longer than 3n + 2 = {3 * n + 2}"
                            )
                        found.append(word)
        self.basis = basis = sorted(found, key=path_sort_key)
        self.basis_index = index = {p: i for i, p in enumerate(basis)}
        self.corners = {(u, v): [] for u in VERTICES for v in VERTICES}
        self.paths_from = {v: [] for v in VERTICES}
        self.paths_into = {v: [] for v in VERTICES}
        self.from_index, self.into_index, self.splits, self.steps = [], [], [], []
        for i, p in enumerate(basis):
            self.corners[(p.source, p.target)].append(p)
            self.from_index.append(len(self.paths_from[p.source]))
            self.paths_from[p.source].append(i)
            self.into_index.append(len(self.paths_into[p.target]))
            self.paths_into[p.target].append(i)
            prefix = Path(p.source, p.arrows[:-1])
            self.splits.append((index[prefix], p.arrows[-1]) if p.arrows else None)
            self.steps.append(
                {tag: None if r is None else index[r] for tag, r in rewritten[p].items()}
            )
        # a `Degrees` table keyed by the left factor's index
        self.product_rows = Degrees(self._product_row, upward=False)

    # -- rewriting ---------------------------------------------------

    def normal_form_path(self, p):
        """Normal form of the path p: Path or None.

        The rules search the text of the word.  Every arrow tag is a
        letter and a digit, so a rule's text can only match at an even
        offset, where a tag starts, and a match is a match of tags."""
        text = "".join(p.arrows)
        detour, rewritten = self.detour, False
        while True:
            for kw in self.kill_words:
                if kw in text:
                    return None
            i = text.find(detour)
            if i < 0:
                break
            text = text[:i] + self.detour_replacement + text[i + len(detour) :]
            rewritten = True
        if not rewritten:
            return p
        return Path(p.source, tuple(text[k : k + 2] for k in range(0, len(text), 2)))

    # -- products ------------------------------------------------------

    def mul_path(self, p, q):
        """Product of two basis paths, read from `product_rows`: a
        normal-form Path or None."""
        index = self.basis_index
        r = self.product_rows[index[p]][index[q]]
        return None if r is None else self.basis[r]

    def _product_row(self, i):
        """Row i of `product_rows`, by arrow steps.

        Normal forms are unique, so if basis[j] is prefix * arrow, then
        basis[i] * basis[j] is the normal form of (basis[i] * prefix) *
        arrow.  The prefix sorts before basis[j], so filling the paths out
        of the target of basis[i] in order reads only filled entries.
        Every other entry is None.
        """
        splits, steps = self.splits, self.steps
        row = [None] * len(self.basis)
        for j in self.paths_from[self.basis[i].target]:
            split = splits[j]
            if split is None:
                row[j] = i
            elif (k := row[split[0]]) is not None:
                row[j] = steps[k][split[1]]
        return row

    def dim(self):
        return len(self.basis)

    def corner_dim(self, u, v):
        return len(self.corners[(u, v)])


_ALGEBRAS = {}  # (n, characteristic) -> FamilyAlgebra


def get_algebra(n, field=QQ):
    """Shared algebra instances, one per n and characteristic.

    Sharing is safe: the only mutable field is the product table
    `product_rows`, each of whose rows is a pure function of its key.
    """
    key = (n, field.p)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = FamilyAlgebra(n, field)
    return _ALGEBRAS[key]


def ideal_relations(n):
    """The five generators of the ideal, as formal path combinations."""
    r_binom = {a_cycle(0, 3 * n + 2): 1, Path("e0", ("b0", "b1")): -1}
    return [
        r_binom,
        {a_cycle(1, 3 * n + 2): 1},
        {a_cycle(2, 3 * n + 2): 1},
        {Path("f1", ("b1", "a2")): 1},
        {Path("e2", ("a2", "b0")): 1},
    ]


def all_paths_up_to(length):
    """Every path in the quiver of length <= `length`, sorted by
    `path_sort_key`: the walk of `FamilyAlgebra` without rewriting."""
    paths = [trivial(v) for v in VERTICES]
    for p in paths:
        if len(p.arrows) < length:
            paths.extend(
                Path(p.source, p.arrows + (tag,)) for tag in ARROWS if ARROW_SOURCE[tag] == p.target
            )
    return sorted(paths, key=path_sort_key)


def truncated_ideal_echelon(n, length, field=QQ):
    """Row reduce the span of u*r*v inside paths of length <= `length`.

    Independent of the rewriting system: works with raw paths in the free
    path algebra.  Returns (ambient paths, echelon of the ideal span).
    A product u*r*v is included only when all of its monomials fit the
    length bound.
    """
    paths = all_paths_up_to(length)
    index = {p: i for i, p in enumerate(paths)}
    ech = SparseEchelon(field.p)
    for rel in ideal_relations(n):
        monos = list(rel.items())
        max_mono = max(len(m.arrows) for m, _ in monos)
        src = monos[0][0].source
        tgt = monos[0][0].target
        for u in paths:
            if u.target != src:
                continue
            if len(u.arrows) + max_mono > length:
                continue
            for v in paths:
                if v.source != tgt:
                    continue
                if len(u.arrows) + max_mono + len(v.arrows) > length:
                    continue
                vec = {}
                for m, c in monos:
                    w = compose(compose(u, m), v)
                    vec[index[w]] = c
                ech.add(vec)
    return paths, ech


def oracle_quotient_dim(n, length, field=QQ):
    """dim of (paths of length <= `length`) / (truncated ideal span)."""
    paths, ech = truncated_ideal_echelon(n, length, field)
    return len(paths) - ech.rank
