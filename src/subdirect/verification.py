"""Named runtime checks over a group selection.

Each check sweeps one library invariant over every applicable case built
from the selected groups and reports how many cases it covered.  The
verify command runs all of them; a check fails when any of its cases
does.  The acceptance tests drive the same scans at fixed selections.

A check is one probe, a function of one case's arguments, decorated
with ``@check(cases)``, where ``cases(ctx)`` gives the case tuples of a
:class:`CheckContext`.  The probe's name names the check
(``check_star_preservation`` is ``star-preservation``) and its place in
this module fixes the check's place in :data:`ALL_CHECKS` and in the
verify output.  A probe decorated with ``@check_blocks(blocks)`` takes a
whole block of cases instead and counts them itself: star-monotonicity
compares every composite of a block as arrays, with no call per case.

One sweep computes each fact once.  The context composes each block of
composable triples once, packed, and the checks that read composites
read that block; the lattice blocks of star-monotonicity are composed
chunk by chunk and held by no one.  Kernels, twists, kernel products and
restriction fibers are memoised on the interned subgroups they belong
to, so a case that repeats one reads it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import OrderLimitExceeded, SubdirectError
from .extensibility import (
    build_report,
    central_inextensibility,
    cyclic_sylow_sufficient,
    is_extensible,
    is_p_extensible,
    kernel_commutator_data,
    obstruction_quotient,
    star_kernel_quotient_orders,
    star_preservation_condition,
    twisted_kernel_identity,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    abelianization,
    commutator_subgroup,
    all_subgroups,
    has_cyclic_sylows,
    is_isomorphic,
    isomorphism_class,
    memoised,
    mutual_commutator,
    normal_subgroups,
    p_part,
    prime_factors,
    quotient_group,
    set_product,
    subgroup_generated,
)
from .homoracle import (
    coefficient_modulus,
    enumerate_homs,
    oracle_is_extensible_for_modulus,
    oracle_is_p_extensible,
    raw_enumerate_homs,
    restriction_kernel_fibers,
    restriction_kernel_image_sizes,
)
from .products import (
    DEFAULT_PRODUCT_CAP,
    compose_chunks,
    compose_relations,
    composite_subgroup,
    contains_twisted_diagonal,
    direct_product,
    enumerate_subdirect,
    goursat_quintuple,
    goursat_quotient,
    interned_row_test,
    is_section,
    packed_masks,
    product_of,
    projections_kernels,
    subdirect_by_scan,
    subgroup_from_quintuple,
)
from .records import AnalysisRecord, analyze_subgroup

MAX_REPORTED_FAILURES = 5
SCAN_CAP = 144  # largest |G x H| whose full subgroup lattice is swept


@dataclass
class CheckResult:
    """Outcome of one named invariant sweep."""

    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"{self.name}: {status} ({self.checked} cases)"
        if self.failures:
            text += "\n  " + "\n  ".join(self.failures[:MAX_REPORTED_FAILURES])
        return text


class CheckContext:
    """Shared scan state: the selection, its product cap and the blocks
    of composable triples.

    The subgroups the context hands out are the interned objects of
    their product group, and each composite resolves to the interned
    subgroup with the same elements, so projections, Goursat data and
    sections are computed once per subgroup rather than once per
    composition.  The blocks of :meth:`triple_blocks` are composed on
    first use and held, packed, in ``triple_rows``; the context holds no
    table from masks to subgroups.
    """

    def __init__(self, groups: Iterable[FiniteGroup], *,
                 product_cap: int = DEFAULT_PRODUCT_CAP):
        self.groups = list(groups)
        self.product_cap = product_cap
        self.triple_rows: Optional[list] = None

    def star_block(self, Us: list, Vs: list):
        """(U, V, U*V) for every U in Us and V in Vs, row by row.

        One compose_relations call makes the whole block, and
        composite_subgroup resolves each row.  Its home F x H must fit
        the context's product cap.
        """
        if Us and Vs:
            yield from _resolved(self._home(Us, Vs), Us, Vs,
                                 compose_relations(Us, Vs))

    def _home(self, Us: list, Vs: list) -> FiniteGroup:
        """F x H, the home of the composites of Us <= F x G, Vs <= G x H."""
        F, H = product_of(Us[0]).left, product_of(Vs[0]).right
        return direct_product(F, H, max_order=self.product_cap).group

    def pairs(self) -> list:
        return [(G, H) for G in self.groups for H in self.groups
                if G.order * H.order <= self.product_cap]

    def scan_pairs(self) -> list:
        return [(G, H) for G, H in self.pairs()
                if G.order * H.order <= SCAN_CAP]

    def squares(self) -> list:
        return [G for G in self.groups
                if G.order * G.order <= self.product_cap]

    def subdirects(self, G: FiniteGroup, H: FiniteGroup) -> list:
        return enumerate_subdirect(G, H, max_order=self.product_cap)

    def lattice(self, G: FiniteGroup, H: FiniteGroup) -> list:
        """Every subgroup of G x H, in all_subgroups order."""
        return all_subgroups(direct_product(G, H).group)

    def lattice_cases(self):
        """(U,) for every subgroup U of G x H over the scan pairs."""
        for G, H in self.scan_pairs():
            for U in self.lattice(G, H):
                yield (U,)

    def subdirect_cases(self):
        """(G, H, U) for every subdirect U over the selected pairs."""
        for G, H in self.pairs():
            for U in self.subdirects(G, H):
                yield G, H, U

    def prime_cases(self):
        """(G, H, U, p) for every subdirect U and prime p dividing |G x H|."""
        for G, H, U in self.subdirect_cases():
            for p in prime_factors(G.order * H.order):
                yield G, H, U, p

    def modulus_cases(self):
        """(G, H, U, m) for every subdirect U, where m is the exponent of
        G x H, the modulus that saturates every prime at once."""
        for G, H, U in self.subdirect_cases():
            yield G, H, U, math.lcm(G.exponent(), H.exponent())

    def diagonal_subgroups(self, G: FiniteGroup) -> list:
        """All U between some twisted diagonal and G x G, with witnesses."""
        return [(U, phi) for U in self.subdirects(G, G)
                if (phi := contains_twisted_diagonal(U)) is not None]

    def triple_blocks(self) -> list:
        """(F x H, Us, Vs, rows) per (F, G, H) within the cap: Us the
        subdirects of F x G, Vs those of G x H and rows their
        :func:`compose_relations` block.

        Composed once, on the first call, and kept in ``triple_rows``.  A
        composite of subdirect products is subdirect, so the subdirect
        products of F x H are enumerated first and every composite row
        is the mask of an interned subgroup.
        """
        if self.triple_rows is None:
            cap, blocks = self.product_cap, []
            for F in self.groups:
                for G in self.groups:
                    if F.order * G.order > cap:
                        continue
                    for H in self.groups:
                        if G.order * H.order > cap:
                            continue
                        if F.order * H.order <= cap:
                            self.subdirects(F, H)
                        Us, Vs = self.subdirects(F, G), self.subdirects(G, H)
                        blocks.append((self._home(Us, Vs), Us, Vs,
                                       compose_relations(Us, Vs)))
            self.triple_rows = blocks
        return self.triple_rows

    def composable_triples(self):
        """(U, V, U*V) with U <= F x G, V <= G x H subdirect, row by row
        from :meth:`triple_blocks`."""
        for block in self.triple_blocks():
            yield from _resolved(*block)


def _resolved(home: FiniteGroup, Us: list, Vs: list, rows: np.ndarray):
    """(U, V, U*V) for a composed block, each composite resolved by
    composite_subgroup."""
    for U, U_rows in zip(Us, rows):
        for V, row in zip(Vs, U_rows):
            yield U, V, composite_subgroup(home, row)


def _run(name: str, tallies: Iterable) -> CheckResult:
    """Sum a check's tallies, pairs (cases, failure lines).

    A SubdirectError raised while the tallies are made, outside any one
    case, ends the check with one failure that names the check, the
    cases reached and the error; the other checks still run.
    OrderLimitExceeded propagates instead: a cap was exceeded, so no
    verdict exists.
    """
    failures = []
    checked = 0
    try:
        for cases, lines in tallies:
            checked += cases
            failures += lines
    except SubdirectError as exc:
        if isinstance(exc, OrderLimitExceeded):
            raise
        failures.append(f"{name} stopped after {checked} cases: "
                        f"{type(exc).__name__}: {exc}")
    return CheckResult(name, not failures, checked, failures)


def _probe_each(cases: Iterable, probe: Callable) -> Iterator[tuple]:
    """One tally per case, a tuple of probe's arguments.

    probe returns None (ok) or the reason a case fails.  Every failure
    line is the case's label, the reprs of its groups, subgroups, homs
    and integers, then the reason.  A SubdirectError the probe raises
    fails its case and the sweep goes on, except OrderLimitExceeded.
    """
    for case in cases:
        try:
            reason = probe(*case)
        except SubdirectError as exc:
            if isinstance(exc, OrderLimitExceeded):
                raise
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            yield 1, ()
        else:
            yield 1, (f"{', '.join(map(repr, case))}: {reason}",)


ALL_CHECKS: list = []  # every check, in definition order


def _check_name(fn: Callable) -> str:
    return fn.__name__.removeprefix("check_").replace("_", "-")


def _register(probe: Callable, tallies: Callable[[CheckContext], Iterable]):
    """Append the check named after probe, check_x_y as x-y, which takes
    a CheckContext and sums tallies(ctx) with :func:`_run`."""
    name = _check_name(probe)

    @functools.wraps(probe)
    def run(ctx: CheckContext) -> CheckResult:
        return _run(name, tallies(ctx))

    ALL_CHECKS.append(run)
    return run


def check(cases: Callable[[CheckContext], Iterable]):
    """Register the decorated probe as the next check, swept over the
    case tuples cases(ctx), one call per case."""
    return lambda probe: _register(
        probe, lambda ctx: _probe_each(cases(ctx), probe))


def check_blocks(blocks: Callable[[CheckContext], Iterable]):
    """Register the decorated block probe as the next check: for each
    block, a tuple of its arguments from blocks(ctx), the probe yields
    tallies (cases, failure lines) that count every case of the block."""
    return lambda probe: _register(
        probe, lambda ctx: (t for block in blocks(ctx) for t in probe(*block)))


def _diagonal_cases(ctx: CheckContext):
    """(G, U, phi) for every U between a twisted diagonal and G x G,
    with its twist phi, over the squares."""
    for G in ctx.squares():
        for U, phi in ctx.diagonal_subgroups(G):
            yield G, U, phi


def _diagonal_star_cases(ctx: CheckContext):
    """(G, U, phi, V, psi, U*V) for every two diagonal cases of one G."""
    for G in ctx.squares():
        pairs = ctx.diagonal_subgroups(G)
        subs = [U for U, _ in pairs]
        twists = itertools.product([phi for _, phi in pairs], repeat=2)
        for (phi, psi), (U, V, W) in zip(
                twists, ctx.star_block(subs, subs), strict=True):
            yield G, U, phi, V, psi, W


def _plain_diagonal_stars(ctx: CheckContext,
                          keep: Callable = lambda U: True):
    """(G, U, V, U*V) for U, V above the diagonal of G x G (witness the
    identity, the search's first leaf) and kept by keep, over the squares."""
    for G in ctx.squares():
        subs = [U for U, phi in ctx.diagonal_subgroups(G)
                if phi.is_identity and keep(U)]
        for U, V, W in ctx.star_block(subs, subs):
            yield G, U, V, W


def _monotonicity_blocks(ctx: CheckContext):
    """(F x H, Us, Vs, chunks) for star-monotonicity: each held block of
    composable triples as one chunk, then the lattice of each scanned
    square composed with itself chunk by chunk, so no lattice block is
    ever held."""
    for home, Us, Vs, rows in ctx.triple_blocks():
        yield home, Us, Vs, [(0, rows)]
    for G in ctx.squares():
        if G.order * G.order <= SCAN_CAP:
            lattice = ctx.lattice(G, G)
            yield (ctx._home(lattice, lattice), lattice, lattice,
                   compose_chunks(lattice, lattice))


# -- core group checks ----------------------------------------------------------


@check(lambda ctx: [(G,) for G in ctx.groups]
       + [(direct_product(G, H).group,) for G, H in ctx.scan_pairs()])
def check_group_axioms(G: FiniteGroup) -> None:
    G.validate()


@check(lambda ctx: ((G, X, Y) for G in ctx.groups
                    for X in normal_subgroups(G) for Y in normal_subgroups(G)
                    if set_product(X, Y).order == G.order))
def check_normal_product_commutator(G, X, Y) -> Optional[str]:
    """G' = <X', [X,Y], Y'> whenever X, Y are normal with XY = G."""
    seed = set(mutual_commutator(X, X).elements)
    seed |= set(mutual_commutator(Y, Y).elements)
    seed |= set(mutual_commutator(X, Y).elements)
    if subgroup_generated(G, seed) != commutator_subgroup(G):
        return "<X', [X,Y], Y'> is not G'"
    return None


@check(lambda ctx: ((G, N) for G in ctx.groups for N in normal_subgroups(G)))
def check_quotient_commutator(G, N) -> Optional[str]:
    """(G/N)' is the image of G' and has order |G'| / |G' cap N|."""
    Gp = commutator_subgroup(G)
    Q, proj = quotient_group(G, N)
    derived = commutator_subgroup(Q)
    if derived != proj.map_subgroup(Gp):
        return "(G/N)' is not the image of G'"
    want = Gp.order // Gp.intersection(N).order
    if derived.order != want:
        return f"|(G/N)'| = {derived.order} != {want}"
    return None


@check(lambda ctx: [(G,) for G in ctx.groups])
def check_abelianization_order(G: FiniteGroup) -> Optional[str]:
    inv, _ = abelianization(G)
    want = G.order // commutator_subgroup(G).order
    if inv.order != want:
        return f"divisor product {inv.order} != {want}"
    return None


@check(lambda ctx: itertools.chain(
    [(a,) for a in ctx.groups], itertools.product(ctx.groups, repeat=2),
    itertools.product(ctx.groups, repeat=3)))
def check_isomorphism_equivalence(a, b=None, c=None) -> Optional[str]:
    """Cases (a,), (a, b) and (a, b, c) test reflexivity, symmetry and
    transitivity; (a, b) also tests that class ids match the search."""
    if b is None:
        return None if is_isomorphic(a, a) else "not reflexive"
    if c is None:
        if is_isomorphic(a, b) != is_isomorphic(b, a):
            return "not symmetric"
        same = isomorphism_class(a) == isomorphism_class(b)
        if same != is_isomorphic(a, b):
            return "class ids disagree with the isomorphism search"
        return None
    if is_isomorphic(a, b) and is_isomorphic(b, c) \
            and not is_isomorphic(a, c):
        return "not transitive"
    return None


# -- product and quintuple checks ------------------------------------------------


@check(lambda ctx: ctx.lattice_cases())
def check_goursat_roundtrip(U: Subgroup) -> Optional[str]:
    if subgroup_from_quintuple(goursat_quintuple(U)) != U:
        return "roundtrip differs"
    return None


@check(lambda ctx: ctx.lattice_cases())
def check_product_order_identity(U: Subgroup) -> Optional[str]:
    d = projections_kernels(U)
    if U.order != d.p1.order * d.k2.order \
            or U.order != d.p2.order * d.k1.order:
        return "breaks |U| = |p_i||k_j|"
    return None


@check(lambda ctx: ctx.lattice_cases())
def check_commutator_projection(U: Subgroup) -> Optional[str]:
    """p_i(U') equals (p_i(U))' for every product subgroup, U' walked in
    the factors as the criterion takes it."""
    d = projections_kernels(U)
    dp = projections_kernels(mutual_commutator(U, U))
    if dp.p1 != mutual_commutator(d.p1, d.p1) \
            or dp.p2 != mutual_commutator(d.p2, d.p2):
        return "p_i(U') is not p_i(U)'"
    return None


@check(lambda ctx: ctx.lattice_cases())
def check_kernel_commutator_chain(U: Subgroup) -> None:
    """[k_i(U), p_i(U)] <= k_i(U') <= (p_i(U))' cap k_i(U)."""
    kernel_commutator_data(U)


@check(lambda ctx: ctx.scan_pairs())
def check_enumeration_vs_scan(G, H) -> Optional[str]:
    """Scan pairs are at most SCAN_CAP, so within every product cap."""
    fast = {U.elements for U in enumerate_subdirect(G, H)}
    slow = {U.elements for U in subdirect_by_scan(G, H)}
    if fast != slow:
        return f"enumeration {len(fast)} vs scan {len(slow)}"
    return None


@check_blocks(_monotonicity_blocks)
def check_star_monotonicity(home, Us, Vs, chunks) -> Iterator[tuple]:
    """k1 grows and p1 shrinks across a composition, one case per (U, V).

    A chunk holds packed composite rows over F x H, bit f * |H| + h for
    (f, h).  k1(U*V) is the column at the identity of H, so k1(U) lies
    in it when the row has the bits of (f, 1) for f in k1(U); p1(U*V) is
    the any-reduction over H, so it lies in p1(U) when the row has no
    bit (f, h) for f outside p1(U).  Both are tested with U's masks as
    byte arrays, for the whole chunk at once.  A row that is no interned
    subgroup's mask fails its case.  Only a failing row is resolved to
    its subgroup, to name it."""
    hn = home.product_info.right.order
    sides = [projections_kernels(U) for U in Us]
    column = (1 << hn) - 1
    kept = packed_masks([sum(1 << f * hn for f in d.k1.elements)
                         for d in sides], home.order)
    outside = packed_masks([(1 << home.order) - 1 - sum(
        column << f * hn for f in d.p1.elements) for d in sides], home.order)
    known = interned_row_test(home)
    for lo, rows in chunks:
        c, m = rows.shape[:2]
        k1 = kept[lo:lo + c, None]
        lost = ((rows & k1) != k1).any(axis=-1)
        grown = (rows & outside[lo:lo + c, None]).any(axis=-1)
        stray = ~known(rows)
        lines = []
        for i, j in zip(*np.nonzero(lost | grown | stray)):
            U, V = Us[lo + i], Vs[j]
            if stray[i, j]:
                lines.append(f"{U!r}, {V!r}: U*V is no subgroup interned "
                             f"on {home.label}")
                continue
            W = composite_subgroup(home, rows[i, j])
            reason = ("k1(U) not inside k1(U*V)" if lost[i, j]
                      else "p1(U*V) not inside p1(U)")
            lines.append(f"{U!r}, {V!r}, {W!r}: {reason}")
        yield c * m, lines


@check(lambda ctx: ctx.composable_triples())
def check_section_relation(U, V, W) -> Optional[str]:
    """q(U*V) is a section of q(U) and of q(V)."""
    qw = goursat_quotient(W)
    if not is_section(qw, goursat_quotient(U)):
        return f"q(U*V) of order {qw.order} not a section of q(U)"
    if not is_section(qw, goursat_quotient(V)):
        return f"q(U*V) of order {qw.order} not a section of q(V)"
    return None


@check(lambda ctx: ctx.composable_triples())
def check_cyclic_sylow_functoriality(U, V, W) -> Optional[str]:
    """All-cyclic-Sylow sections stay all-cyclic-Sylow under star."""
    if not (has_cyclic_sylows(goursat_quotient(U))
            and has_cyclic_sylows(goursat_quotient(V))):
        return None
    if not has_cyclic_sylows(goursat_quotient(W)):
        return "composite section lost the cyclic Sylow property"
    return None


@check(lambda ctx: itertools.chain(_diagonal_cases(ctx),
                                   _diagonal_star_cases(ctx)))
def check_twisted_kernel_transport(G, U, phi, V=None, psi=None,
                                   W=None) -> Optional[str]:
    """k2(U) = phi(k1(U)) on each diagonal case (G, U, phi), and the
    composite kernel product identities on each pair of them."""
    dU = projections_kernels(U)
    if V is None:
        if phi.map_subgroup(dU.k1) != dU.k2:
            return "k2 is not the twist image of k1"
        return None
    dV = projections_kernels(V)
    dW = projections_kernels(W)
    want1 = set_product(dU.k1, _twist_preimage(U, dV.k1))
    want2 = set_product(dV.k2, _twist_image(V, dU.k2))
    if dW.k1 != want1:
        return "k1(U*V) != k1(U) phi^-1(k1(V))"
    if dW.k2 != want2:
        return "k2(U*V) != k2(V) psi(k2(U))"
    return None


@memoised("twist_preimage")
def _twist_preimage(U: Subgroup, K: Subgroup) -> Subgroup:
    """phi^-1(K) for U's twist phi, the memoised contains_twisted_diagonal(U)
    that the diagonal cases carry, memoised on U per K's mask."""
    return _twist_inverse(U).map_subgroup(K)


@memoised("twist_inverse")
def _twist_inverse(U: Subgroup):
    return contains_twisted_diagonal(U).inverted()


@memoised("twist_image")
def _twist_image(V: Subgroup, K: Subgroup) -> Subgroup:
    """psi(K) for V's twist psi, memoised on V per K's mask."""
    return contains_twisted_diagonal(V).map_subgroup(K)


# -- extensibility checks --------------------------------------------------------


@check(lambda ctx: ctx.subdirect_cases())
def check_side_symmetry(G, H, U) -> None:
    """is_extensible evaluates both kernel equalities and they agree."""
    is_extensible(U)


@check(lambda ctx: ctx.prime_cases())
def check_oracle_agreement(G, H, U, p) -> Optional[str]:
    criterion = is_p_extensible(U, p)
    oracle = oracle_is_p_extensible(U, p)
    if criterion != oracle:
        return f"criterion {criterion} vs oracle {oracle}"
    return None


@check(lambda ctx: ctx.subdirect_cases())
def check_sufficiency_soundness(G, H, U) -> Optional[str]:
    """Shortcut verdicts never contradict the exact criterion."""
    exact = is_extensible(U)
    if cyclic_sylow_sufficient(U) and not exact:
        return "cyclic-Sylow fired on inextensible U"
    if G is H and contains_twisted_diagonal(U) is not None:
        if central_inextensibility(U) is False and exact:
            return "central shortcut fired on extensible U"
    return None


@check(lambda ctx: ctx.prime_cases())
def check_obstruction_soundness(G, H, U, p) -> Optional[str]:
    """Trivial p-part of (k1 cap G')/[k1,G] forces p-extensibility."""
    k1 = projections_kernels(U).k1
    if p_part(obstruction_quotient(G, k1).order, (p,)) != 1:
        return None
    if not is_p_extensible(U, p):
        return "trivial obstruction but inextensible"
    return None


@check(_diagonal_cases)
def check_twisted_kernel_identity(G, U, phi) -> None:
    """k_i(U') = [k_i(U), G] on every diagonal-containing subgroup."""
    twisted_kernel_identity(U)


@check(lambda ctx: _plain_diagonal_stars(ctx, is_extensible))
def check_star_preservation(G, U, V, W) -> Optional[str]:
    """Kernel condition at i=1,2 holds iff the composite is extensible."""
    condition = (star_preservation_condition(U, V, side=1, composite=W)
                 and star_preservation_condition(U, V, side=2, composite=W))
    actual = is_extensible(W)
    if condition != actual:
        return f"condition {condition} but composite extensible={actual}"
    return None


@check(_plain_diagonal_stars)
def check_star_kernel_sections(G, U, V, W) -> None:
    """The four composite kernel quotient orders match pairwise."""
    star_kernel_quotient_orders(U, V, composite=W)


@check(lambda ctx: ctx.subdirect_cases())
def check_report_methods(G, H, U) -> Optional[str]:
    """Per-prime reports build cleanly and conjoin to the overall verdict."""
    report = build_report(U)
    if all(v["extensible"] for v in report.values()) != is_extensible(U):
        return "per-prime conjunction differs from is_extensible"
    return None


# -- hom oracle checks -----------------------------------------------------------


_PRIME_SETS = ((2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5))


@check(lambda ctx: ((G, pi) for G in ctx.groups if G.is_abelian
                    for pi in _PRIME_SETS))
def check_hom_count_identity(G, pi) -> Optional[str]:
    """|Hom(B, C_m)| = pi-part of |B| for abelian B at saturating m."""
    m = p_part(G.exponent(), pi)
    count = len(enumerate_homs(G, m))
    if count != p_part(G.order, pi):
        return f"{count} homs vs {p_part(G.order, pi)}"
    return None


@check(lambda ctx: ((G, m) for G in ctx.groups for m in (1, 2, 3, 4, 6)
                    if m ** (G.order - 1) <= 1 << 18))
def check_raw_enumerator_agreement(G, m) -> Optional[str]:
    """The value-table search returns exactly the fast enumeration."""
    fast = {h.key() for h in enumerate_homs(G, m)}
    raw = {h.key() for h in raw_enumerate_homs(G, m)}
    if fast != raw:
        return f"{len(fast)} fast vs {len(raw)} raw"
    return None


@check(lambda ctx: ctx.modulus_cases())
def check_restriction_kernel(G, H, U, m) -> Optional[str]:
    """Kernel of the restriction counts homs out of the common section."""
    kernel, _ = restriction_kernel_image_sizes(U, m)
    want = len(enumerate_homs(goursat_quotient(U), m))
    if kernel != want:
        return f"kernel {kernel} vs |Hom(q(U))| {want}"
    return None


@check(lambda ctx: ctx.modulus_cases())
def check_fiber_uniformity(G, H, U, m) -> Optional[str]:
    kernel, counts = restriction_kernel_fibers(U, m)
    if set(counts) != {kernel}:
        return f"fibers {set(counts)} != {kernel}"
    return None


@check(lambda ctx: ctx.prime_cases())
def check_coefficient_stabilization(G, H, U, p) -> Optional[str]:
    """Verdicts stop changing once m saturates the exponent's p-part."""
    m = coefficient_modulus(U, p)
    a = oracle_is_extensible_for_modulus(U, m)
    b = oracle_is_extensible_for_modulus(U, m * p)
    if a != b:
        return f"verdict changed between m={m} and m={m * p}"
    return None


# -- reporting checks ------------------------------------------------------------


@check(lambda ctx: ctx.subdirect_cases())
def check_record_roundtrip(G, H, U) -> Optional[str]:
    record = analyze_subgroup(U)
    back = AnalysisRecord.from_dict(json.loads(record.to_json()))
    if back != record:
        return "reparse differs"
    if record.to_json() != analyze_subgroup(U).to_json():
        return "serialization not deterministic"
    if record.inconsistent:
        return "record flagged INCONSISTENT"
    return None


def iter_checks(ctx: CheckContext,
                names: Optional[Iterable[str]] = None) -> Iterator[CheckResult]:
    """Run the selected checks (all by default), in definition order,
    yielding each result, timed, as its check finishes."""
    known = {_check_name(sweep): sweep for sweep in ALL_CHECKS}
    if names is not None:
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise KeyError(f"unknown checks: {', '.join(unknown)}")
    wanted = None if names is None else set(names)
    for name, sweep in known.items():
        if wanted is not None and name not in wanted:
            continue
        start = time.perf_counter()
        result = sweep(ctx)
        result.seconds = time.perf_counter() - start
        yield result


def run_checks(ctx: CheckContext, names: Optional[Iterable[str]] = None) -> list:
    """The results of :func:`iter_checks`, as a list."""
    return list(iter_checks(ctx, names))
