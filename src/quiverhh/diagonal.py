"""Diagonal maps on the resolution: the literal two-corner map, its
homotopy-corrected variant, and exactly solved lifts of the identity.

Three kinds of degree-indexed family live here.

* literal: on a generator u, place the degree-0 diagonal generator at
  the origin on the left of u and at the terminus on the right of u.
  At degree 0 the two placements coincide, doubling the coefficient, so
  the family lifts multiplication by 2.  Evaluated on a general element
  it is applied term-by-term (a k-linear rule, not the bimodule-linear
  extension of its generator images: the two extensions genuinely differ
  and only the term-by-term rule makes every square commute).

* formula: literal plus the homotopy correction h∘boundary + d∘h for a
  chosen h; same evaluation rule for the literal part.

* solved: a true bimodule chain map lifting the identity, produced
  degree by degree with one-sided contracting homotopies of the
  resolution.  Evaluation is the bimodule-linear extension of the
  stored generator images, and every square is exact by construction
  (and re-verified).

The solver never forms the total-complex boundary as one big matrix: it
contracts the first or second tensor factor with a one-sided contraction
of the resolution.  Both contractions solve with the resolution's
boundary solver of each degree, whose echelon splits into one-sided
corner blocks.
"""

from __future__ import annotations

from .linalg import accumulate, axpy
from .quiver import arrow, trivial
from .tensorcx import TensorComplex
from .uniform import Label, label_pair


class OneSidedContraction:
    """A contracting homotopy of the augmented resolution, linear on one side.

    side='right': the maps commute with the right action; they are stored
    on the right-generators (left basis path, label) and extended by
    right multiplication.  side='left' is the mirror.  The defining
    identities (boundary∘s + s∘boundary = identity, with the degree-0
    correction through the augmentation section) are solved with the
    resolution's boundary solver of each degree.
    """

    def __init__(self, resolution, side, max_degree):
        assert side in ("right", "left")
        self.res = resolution
        self.alg = resolution.algebra
        self.side = side
        self.max_degree = max_degree
        self.table = {}  # degree -> {(path, label) or (label, path): element}
        self._build()

    # the degree-0 section of the augmentation: a path p lifts to the
    # diagonal generator at its source (right side) / target (left side)
    _LAB0 = {"e0": Label(0, "R", None), "e1": Label(0, "S", None),
             "f1": Label(0, "T", None), "e2": Label(0, "U", None)}

    def section(self, p):
        if self.side == "right":
            return {(self._LAB0[p.source], trivial(p.source), p): self.res.field.one()}
        return {(self._LAB0[p.target], p, trivial(p.target)): self.res.field.one()}

    def section_apply(self, lam_elem):
        return accumulate(
            (k, c * d) for p, c in lam_elem.items() for k, d in self.section(p).items()
        )

    def apply(self, m, elem):
        """Apply the degree-m homotopy to a degree-m element."""
        mul = self.alg.mul_path
        table = self.table[m]
        if self.side == "right":
            return accumulate(
                ((l2, L2, nr), c * d)
                for (lab, left, right), c in elem.items()
                for (l2, L2, R2), d in table[(left, lab)].items()
                if (nr := mul(R2, right)) is not None
            )
        return accumulate(
            ((l2, nl, R2), c * d)
            for (lab, left, right), c in elem.items()
            for (l2, L2, R2), d in table[(lab, right)].items()
            if (nl := mul(left, L2)) is not None
        )

    def _generators(self, m):
        alg = self.alg
        for lab in self.res.labels(m):
            o, t = label_pair(lab)
            if self.side == "right":
                for left in alg.paths_into[o]:
                    yield (left, lab), {(lab, left, trivial(t)): self.res.field.one()}
            else:
                for right in alg.paths_from[t]:
                    yield (lab, right), {(lab, trivial(o), right): self.res.field.one()}

    def _build(self):
        # The boundary commutes with both actions, so the echelon of each
        # degree's boundary matrix splits into one-sided corner blocks and
        # a solution never leaves the corner of its right-hand side.
        res = self.res
        minus_one = -res.field.one()
        for m in range(0, self.max_degree + 1):
            solver = res.boundary_solver(m + 1)
            src = res.triples(m + 1)
            tgt_index = res.triple_index(m)
            tbl = {}
            for key, gen_elem in self._generators(m):
                if m == 0:
                    defect = self.section_apply(res.augment(gen_elem))
                else:
                    defect = self.apply(m - 1, res.apply_boundary(m, gen_elem))
                rhs_elem = axpy(gen_elem, minus_one, defect)
                x = solver.solve({tgt_index[k]: c for k, c in rhs_elem.items()})
                assert x is not None, f"contraction solve failed at degree {m}"
                tbl[key] = {src[i]: c for i, c in x.items()}
            self.table[m] = tbl


class ChainMapFamily:
    """Degree-indexed generator images of a map into the total complex,
    plus the rule for evaluating the map on arbitrary elements."""

    def __init__(self, provenance, images, diagonal, homotopy=None, lift_factor=1):
        self.provenance = provenance  # 'literal', 'formula', 'solved', 'custom'
        self.images = images  # {degree: {label: tensor element}}
        self.dm = diagonal
        self.homotopy = homotopy
        self.lift_factor = lift_factor
        self.verified = {}  # degree -> bool, filled by verify_square

    def truncated(self, max_degree):
        """The same map on degrees <= max_degree, sharing the images."""
        images = {m: self.images[m] for m in range(max_degree + 1)}
        fam = ChainMapFamily(self.provenance, images, self.dm, self.homotopy, self.lift_factor)
        fam.convention = getattr(self, "convention", None)
        return fam

    def image(self, label):
        return self.images[label.degree][label]

    def evaluate(self, m, elem):
        """Value on a degree-m element of the resolution."""
        if self.provenance in ("literal", "formula"):
            out = self.dm.delta_prime_apply(elem)
            if self.provenance == "formula":
                h = self.homotopy
                if m >= 1:
                    axpy(out, 1, h.apply(m - 1, self.dm.res.apply_boundary(m, elem)))
                else:
                    axpy(out, 1, h.apply_star(self.dm.res.augment(elem)))
                axpy(out, 1, self.dm.tc.differential(h.apply(m, elem)))
            return out
        # bimodule-linear extension of the stored generator images
        act = self.dm.tc.act
        out = {}
        images_m = self.images[m]
        for (lab, left, right), c in elem.items():
            axpy(out, c, act(left, images_m[lab], right))
        return out


class HomotopyFamily:
    """Generator images of a degree +1 map, extended bimodule-linearly,
    together with the vertex table used below degree 0."""

    def __init__(self, diagonal, images, star):
        self.dm = diagonal
        self.images = images  # {degree: {label: tensor element of degree+1}}
        self.star = star  # {vertex: tensor element of degree 0}

    def apply(self, m, elem):
        act = self.dm.tc.act
        out = {}
        images_m = self.images.get(m, {})
        for (lab, left, right), c in elem.items():
            img = images_m.get(lab)
            if img:
                axpy(out, c, act(left, img, right))
        return out

    def apply_star(self, lam_elem):
        """The composite through the augmentation: defined on vertex images."""
        out = {}
        for p, c in lam_elem.items():
            if p.is_vertex():
                axpy(out, c, self.star.get(p.source, {}))
        return out


class DiagonalMaps:
    """Constructions and verifiers for maps from the resolution into the
    total complex, all bound to one algebra member."""

    def __init__(self, resolution, tensor_complex=None):
        self.res = resolution
        self.tc = tensor_complex if tensor_complex is not None else TensorComplex(resolution)
        self.field = resolution.field
        self._contractions = {}

    _LAB0 = OneSidedContraction._LAB0

    # -- the literal two-corner diagonal --------------------------------

    def delta_prime_image(self, label):
        """Generator image: origin corner on the left, terminus corner on
        the right; at degree 0 both corners coincide and the coefficient
        doubles."""
        o, t = label_pair(label)
        one = self.field.one()
        gen = {(label, trivial(o), trivial(t)): one}
        left_part = self.tc.tensor(self.res.generator(self._LAB0[o]), gen)
        return axpy(left_part, 1, self.tc.tensor(gen, self.res.generator(self._LAB0[t])))

    def delta_prime_images(self, m):
        return {lab: self.delta_prime_image(lab) for lab in self.res.labels(m)}

    def delta_prime_apply(self, elem):
        """Term-by-term application of the two-corner rule to an element."""
        out = {}
        one = self.field.one()
        for (lab, left, right), c in elem.items():
            term = {(lab, left, right): one}
            o_v = left.source
            t_v = right.target
            part = axpy(
                self.tc.tensor(self.res.generator(self._LAB0[o_v]), term),
                1,
                self.tc.tensor(term, self.res.generator(self._LAB0[t_v])),
            )
            axpy(out, c, part)
        return out

    def literal_family(self, max_degree):
        images = {m: self.delta_prime_images(m) for m in range(max_degree + 1)}
        return ChainMapFamily("literal", images, self, lift_factor=2)

    # -- homotopies ------------------------------------------------------

    def default_homotopy(self, max_degree, flip_star_signs=False):
        """The successor homotopy: a generator at the vertex pair
        (w, w+k) goes to the degree-0 diagonal at w tensored with the
        next-degree generator at (w, w+k+1), stepping along the a-chain
        (the b-chain for the detour vertex; the shared vertex takes the
        a-step).  Mixed-pair generators at diagonal degrees carry no
        printed value and are sent to zero.  The vertex table carries a
        minus sign on the a-successors and a plus on the b-successor;
        `flip_star_signs` swaps that orientation."""
        one = self.field.one()
        images = {}
        for m in range(0, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                o, t = label_pair(lab)
                if m % 3 == 0 and o != t:
                    imgs[lab] = {}
                    continue
                nxt = self._next_pair_label(m, o)
                imgs[lab] = self.tc.tensor(
                    self.res.generator(self._LAB0[o]), self.res.generator(nxt)
                )
            images[m] = imgs
        star = {}
        succ_arrow = {"e0": "a0", "e1": "a1", "e2": "a2", "f1": "b1"}
        sign = {"e0": -one, "e1": -one, "e2": -one, "f1": one}
        if flip_star_signs:
            sign = {v: -s for v, s in sign.items()}
        for v in ("e0", "e1", "f1", "e2"):
            lab = self._LAB0[v]
            base = self.tc.tensor(self.res.generator(lab), self.res.generator(lab))
            acted = self.tc.act(trivial(v), base, arrow(succ_arrow[v]))
            star[v] = axpy({}, sign[v], acted)
        return HomotopyFamily(self, images, star)

    def _next_pair_label(self, m, o):
        """The degree-(m+1) generator one successor step from the diagonal at o."""
        succ = {"e0": "e1", "e1": "e2", "e2": "e0", "f1": "e2"}
        succ2 = {"e0": "e2", "e1": "e0", "e2": "e1", "f1": "e0"}
        r = m % 3
        if r == 0:
            pair = (o, succ[o])
        elif r == 1:
            pair = (o, succ2[o])
        else:
            pair = (o, o)
        for lab in self.res.labels(m + 1):
            if label_pair(lab) == pair:
                return lab
        raise AssertionError(f"no generator with pair {pair} at degree {m + 1}")

    def zero_homotopy(self, max_degree):
        images = {m: {lab: {} for lab in self.res.labels(m)} for m in range(max_degree + 1)}
        return HomotopyFamily(self, images, {v: {} for v in ("e0", "e1", "f1", "e2")})

    def corner_homotopy(self, max_degree):
        """A nonzero degree +1 map that does respect generator corners:
        each generator goes to the first scalar basis element of its own
        corner one total degree up (zero when the corner is empty).  Used
        to produce genuinely different lifts of the same map."""
        alg = self.res.algebra
        one = self.field.one()
        images = {}
        for m in range(0, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                o, t = label_pair(lab)
                pick = None
                for a in range(m + 2):
                    for g1 in self.res.labels(a):
                        o1, t1 = label_pair(g1)
                        if not alg.corners[(o, o1)]:
                            continue
                        for g2 in self.res.labels(m + 1 - a):
                            o2, t2 = label_pair(g2)
                            if alg.corners[(t1, o2)] and alg.corners[(t2, t)]:
                                pick = (
                                    g1,
                                    g2,
                                    alg.corners[(o, o1)][0],
                                    alg.corners[(t1, o2)][0],
                                    alg.corners[(t2, t)][0],
                                )
                                break
                        if pick:
                            break
                    if pick:
                        break
                imgs[lab] = {pick: one} if pick else {}
            images[m] = imgs
        return HomotopyFamily(self, images, {v: {} for v in ("e0", "e1", "f1", "e2")})

    def formula_family(self, homotopy, max_degree):
        """Literal diagonal corrected by h: images are literal + h∘boundary + d∘h."""
        images = {}
        for m in range(0, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                base = self.delta_prime_image(lab)
                gen = self.res.generator(lab)
                if m >= 1:
                    corr1 = homotopy.apply(m - 1, self.res.apply_boundary(m, gen))
                else:
                    corr1 = homotopy.apply_star(self.res.augment(gen))
                corr2 = self.tc.differential(homotopy.apply(m, gen))
                imgs[lab] = axpy(axpy(base, 1, corr1), 1, corr2)
            images[m] = imgs
        return ChainMapFamily("formula", images, self, homotopy=homotopy, lift_factor=2)

    # -- exact solving ----------------------------------------------------

    def contraction(self, side, max_degree):
        key = (side, max_degree)
        have = [k for k in self._contractions if k[0] == side and k[1] >= max_degree]
        if have:
            return self._contractions[have[0]]
        c = OneSidedContraction(self.res, side, max_degree)
        self._contractions[key] = c
        return c

    def _solve_boundary(self, m, rhs, convention, s_right, s_left):
        """A deterministic X in total degree m with dX = rhs.

        rhs must be a boundary; for total degree m-1 = 0 this amounts to
        rhs augmenting to zero.  Contract the first factor (convention
        'left') or the second (convention 'right'), then push the
        degree-(0, b) or (a, 0) leftover through the other side.
        """
        mul = self.res.algebra.mul_path
        lab0 = self._LAB0

        def s_first(elem):
            # (first-factor contraction) tensor identity
            table = s_right.table
            return accumulate(
                ((l2, g2, L2, nm, right), c * d)
                for (g1, g2, left, mid, right), c in elem.items()
                for (l2, L2, R2), d in table[g1.degree][(left, g1)].items()
                if (nm := mul(R2, mid)) is not None
            )

        def s_second(elem, signed):
            table = s_left.table
            return accumulate(
                ((g1, l2, left, nm, R2), (-c if signed and g1.degree % 2 else c) * d)
                for (g1, g2, left, mid, right), c in elem.items()
                for (l2, L2, R2), d in table[g2.degree][(g2, right)].items()
                if (nm := mul(mid, L2)) is not None
            )

        def project_first(elem):
            # replace a degree-0 first factor through augment-then-section
            return accumulate(
                ((lab0[p.source], g2, trivial(p.source), p, right), c)
                for (g1, g2, left, mid, right), c in elem.items()
                if g1.degree == 0 and (p := mul(left, mid)) is not None
            )

        def project_second(elem):
            return accumulate(
                ((g1, lab0[p.target], left, p, trivial(p.target)), c)
                for (g1, g2, left, mid, right), c in elem.items()
                if g2.degree == 0 and (p := mul(mid, right)) is not None
            )

        if convention == "left":
            return axpy(s_first(rhs), 1, s_second(project_first(rhs), signed=False))
        return axpy(s_second(rhs, signed=True), 1, s_first(project_second(rhs)))

    def solved_family(self, max_degree, convention="left"):
        """An exactly solved lift of the identity, one square at a time."""
        assert convention in ("left", "right")
        s_right = self.contraction("right", max_degree)
        s_left = self.contraction("left", max_degree)
        one = self.field.one()
        images = {0: {}}
        for lab in self.res.labels(0):
            gen = self.res.generator(lab)
            images[0][lab] = self.tc.tensor(gen, gen)
        family = ChainMapFamily("solved", images, self, lift_factor=1)
        for m in range(1, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                o, t = label_pair(lab)
                rhs = family.evaluate(m - 1, self.res.apply_boundary(m, self.res.generator(lab)))
                x = self._solve_boundary(m, rhs, convention, s_right, s_left)
                # keep only the generator's own corner; the complement is
                # boundary-free junk the one-sided contractions may add
                x = self.tc.act(trivial(o), x, trivial(t))
                if axpy(self.tc.differential(x), -one, rhs):
                    raise ArithmeticError(f"no exact solution at degree {m} for {lab}")
                imgs[lab] = x
            images[m] = imgs
        family.convention = convention
        return family

    def perturbed_family(self, base, k, max_degree):
        """base + d∘k + k∘boundary: another chain map with the same lift.

        k is any HomotopyFamily (generator images of total degree +1);
        the correction is a boundary in the chain-map sense, so the two
        lifts are homotopic by construction, with k itself a witness.
        """
        images = {}
        for m in range(0, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                gen = self.res.generator(lab)
                corr = self.tc.differential(k.apply(m, gen))
                if m >= 1:
                    axpy(corr, 1, k.apply(m - 1, self.res.apply_boundary(m, gen)))
                imgs[lab] = axpy(dict(base.image(lab)), 1, corr)
            images[m] = imgs
        fam = ChainMapFamily("custom", images, self, lift_factor=base.lift_factor)
        fam.convention = getattr(base, "convention", None)
        return fam

    # -- verification ------------------------------------------------------

    def verify_square(self, family, m):
        """Exact per-generator comparison in the square at degree m.

        m >= 1: family∘boundary versus differential∘family.  m == 0: the
        augmentation square, compared against lift_factor times the
        augmentation."""
        rows = []
        one = self.field.one()
        for lab in self.res.labels(m):
            gen = self.res.generator(lab)
            if m == 0:
                got = self.tc.augment(family.image(lab))
                lift = self.field.from_int(family.lift_factor)
                diff = axpy(got, -lift, self.res.augment(gen))
                check = "augmentation-square"
            else:
                lhs = family.evaluate(m - 1, self.res.apply_boundary(m, gen))
                rhs = self.tc.differential(family.image(lab))
                diff = axpy(lhs, -one, rhs)
                check = "square"
            rows.append(
                {
                    "degree": m,
                    "check": check,
                    "generator": str(lab),
                    "status": "pass" if not diff else "fail",
                }
            )
        ok = all(r["status"] == "pass" for r in rows)
        family.verified[m] = ok
        return rows

    def verify_squares(self, family, max_degree):
        rows = []
        for m in range(0, max_degree + 1):
            rows.extend(self.verify_square(family, m))
        return rows

    def homotopy_solve(self, fam_f, fam_g, max_degree):
        """Find h with f - g = h∘boundary + d∘h, or report the degree
        where the two families cannot be homotopic."""
        s_right = self.contraction("right", max_degree)
        s_left = self.contraction("left", max_degree)
        one = self.field.one()
        images = {}
        star = {v: {} for v in ("e0", "e1", "f1", "e2")}
        h = HomotopyFamily(self, images, star)
        for m in range(0, max_degree + 1):
            imgs = {}
            for lab in self.res.labels(m):
                o, t = label_pair(lab)
                gen = self.res.generator(lab)
                e = axpy(dict(fam_f.image(lab)), -one, fam_g.image(lab))
                if m >= 1:
                    axpy(e, -one, h.apply(m - 1, self.res.apply_boundary(m, gen)))
                x = self._solve_boundary(m + 1, e, "left", s_right, s_left)
                x = self.tc.act(trivial(o), x, trivial(t))
                if axpy(self.tc.differential(x), -one, e):
                    return None, m
                imgs[lab] = x
            images[m] = imgs
        return h, None
