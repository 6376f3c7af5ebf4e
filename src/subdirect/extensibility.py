"""Deciding whether homomorphisms on a subdirect product extend.

For a subdirect U <= G x H and a coefficient group whose n-torsion is
cyclic of order n restricted to a prime set, extension of every hom on
U comes down to a kernel condition: k_i([U,U]) must exhaust the derived
subgroup of the factor intersected with k_i(U), prime by prime, and by
theory it holds for i = 1 exactly when for i = 2.  The functions here
compute it on both sides, the cheaper sufficient tests around it, and
the behaviour of all of them under relation composition of subgroups.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalInconsistency,
    NoDiagonal,
    NotNormal,
    PreconditionFailed,
)
from .groups import (
    AbelianInvariants,
    FiniteGroup,
    Subgroup,
    abelian_invariants,
    center,
    commutator_subgroup,
    has_cyclic_sylows,
    interned,
    is_normal,
    memoised,
    mutual_commutator,
    p_part,
    prime_factors,
    set_product,
    subgroup_quotient,
)
from .products import (
    contains_twisted_diagonal,
    diagonal,
    goursat_quotient,
    product_of,
    projections_kernels,
    require_subdirect,
    star_product,
)

METHOD_EXACT = "exact-criterion"
METHOD_CYCLIC_SYLOW = "cyclic-sylow"
METHOD_CENTRAL = "central-shortcut"


@dataclass(frozen=True)
class KernelCommutatorData:
    """The kernel chain [k_i(U), p_i(U)] <= k_i([U,U]) <= p_i(U)' cap
    k_i(U) of a product subgroup U, verified on construction for i = 1, 2.
    """

    k1_of_derived: Subgroup
    commutator_k1_p1: Subgroup
    p1_derived_cap_k1: Subgroup
    k2_of_derived: Subgroup
    commutator_k2_p2: Subgroup
    p2_derived_cap_k2: Subgroup


@memoised("kernel_commutator")
def kernel_commutator_data(U: Subgroup) -> KernelCommutatorData:
    d = projections_kernels(U)
    dd = projections_kernels(mutual_commutator(U, U))
    c1 = mutual_commutator(d.k1, d.p1)
    c2 = mutual_commutator(d.k2, d.p2)
    info = product_of(U)
    cap1 = interned(info.left, mutual_commutator(d.p1, d.p1).mask & d.k1.mask)
    cap2 = interned(info.right, mutual_commutator(d.p2, d.p2).mask & d.k2.mask)
    if not (c1.is_subset_of(dd.k1) and dd.k1.is_subset_of(cap1)):
        raise InternalInconsistency("kernel chain fails on the left")
    if not (c2.is_subset_of(dd.k2) and dd.k2.is_subset_of(cap2)):
        raise InternalInconsistency("kernel chain fails on the right")
    return KernelCommutatorData(dd.k1, c1, cap1, dd.k2, c2, cap2)


def _both_sides(U: Subgroup, same, where: str = "") -> bool:
    """same(k_i([U,U]), p_i(U)' cap k_i(U)) for a subdirect U, evaluated
    for i = 1 and 2.  By theory the two agree; a disagreement aborts
    loudly instead of picking one."""
    require_subdirect(U)
    data = kernel_commutator_data(U)
    left = same(data.k1_of_derived, data.p1_derived_cap_k1)
    right = same(data.k2_of_derived, data.p2_derived_cap_k2)
    if left != right:
        raise InternalInconsistency(
            f"left and right kernel criteria disagree{where}")
    return left


def is_extensible(U: Subgroup) -> bool:
    """Exact criterion: G' cap k1(U) equals k1([U, U])."""
    return _both_sides(U, operator.eq)


def is_p_extensible(U: Subgroup, p: int) -> bool:
    """Exact criterion at one prime: equal p-parts of the two kernels."""
    return _both_sides(U, lambda a, b: (p_part(a.order, (p,))
                                        == p_part(b.order, (p,))),
                       f" at p={p}")


# -- obstruction quotient ------------------------------------------------------


def obstruction_quotient(G: FiniteGroup, K: Subgroup) -> AbelianInvariants:
    """Invariants of (K cap G') / [K, G] for K normal in G, memoised on K.

    Trivial p-part here means no hom with kernel data at K can obstruct
    extension at p.
    """
    if K.parent is not G:
        raise ValueError("subgroup of a different parent")
    return _obstruction_of(K)


@memoised("obstruction")
def _obstruction_of(K: Subgroup) -> AbelianInvariants:
    G = K.parent
    if not is_normal(K):
        raise NotNormal("obstruction quotient needs a normal subgroup")
    base = K.intersection(commutator_subgroup(G))
    den = mutual_commutator(K, G.full())
    if not den.is_subset_of(base):
        raise InternalInconsistency("[K, G] escapes K cap G'")
    quot, _ = subgroup_quotient(base, den)
    if not quot.is_abelian:
        raise InternalInconsistency("obstruction quotient is not abelian")
    return abelian_invariants(quot)


# -- sufficient conditions -----------------------------------------------------


def cyclic_sylow_sufficient(U: Subgroup) -> Optional[bool]:
    """True when every Sylow subgroup of the common section is cyclic.

    Returning None means the test is silent, not that extension fails.
    """
    return True if has_cyclic_sylows(goursat_quotient(U)) else None


def twisted_kernel_identity(U: Subgroup) -> None:
    """For U containing a twisted diagonal, k_i([U,U]) = [k_i(U), G].

    The equality is a theorem for such U; failure raises, it is never
    reported as data.
    """
    if contains_twisted_diagonal(U) is None:
        raise NoDiagonal("subgroup contains no twisted diagonal")
    G = product_of(U).left
    d = projections_kernels(U)
    data = kernel_commutator_data(U)
    if data.k1_of_derived != mutual_commutator(d.k1, G.full()) \
            or data.k2_of_derived != mutual_commutator(d.k2, G.full()):
        raise InternalInconsistency(
            "derived kernel differs from [k_i(U), G] despite a diagonal")


def central_inextensibility(U: Subgroup) -> Optional[bool]:
    """False (inextensible) when some central kernel still meets G'.

    Applies to diagonal-containing subgroups of G x G; None when the
    hypotheses do not hold.
    """
    if contains_twisted_diagonal(U) is None:
        raise NoDiagonal("subgroup contains no twisted diagonal")
    return False if _central_kernel_primes(U) else None


def _central_kernel_primes(U: Subgroup) -> tuple:
    """Primes dividing |k cap G'| over the central kernels k of U."""
    G = product_of(U).left
    data = projections_kernels(U)
    Z = center(G)
    Gp = commutator_subgroup(G)
    primes: set = set()
    for k in (data.k1, data.k2):
        if k.is_subset_of(Z):
            primes.update(prime_factors(k.intersection(Gp).order))
    return tuple(sorted(primes))


# -- behaviour under composition ----------------------------------------------


def _require_diagonal_pair(U: Subgroup, V: Subgroup) -> FiniteGroup:
    PU = product_of(U)
    PV = product_of(V)
    if PU.left is not PU.right or PV.left is not PV.right \
            or PU.left is not PV.left:
        raise PreconditionFailed("both subgroups must live in the same G x G")
    G = PU.left
    d = diagonal(G)
    if not (d.is_subset_of(U) and d.is_subset_of(V)):
        raise PreconditionFailed("both subgroups must contain the diagonal")
    return G


def star_preservation_condition(U: Subgroup, V: Subgroup, side: int = 1, *,
                                composite: Optional[Subgroup] = None) -> bool:
    """k_i(U*V) cap G' = (k_i(U) cap G') (k_i(V) cap G').

    Defined for extensible U, V containing the untwisted diagonal; the
    condition holds exactly when U*V is extensible again.  ``composite``
    is U*V when the caller has already formed it.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    G = _require_diagonal_pair(U, V)
    if not (is_extensible(U) and is_extensible(V)):
        raise PreconditionFailed("both inputs must be extensible")
    Gp = commutator_subgroup(G)
    W = star_product(U, V) if composite is None else composite
    dU = projections_kernels(U)
    dV = projections_kernels(V)
    dW = projections_kernels(W)
    kU, kV, kW = ((dU.k1, dV.k1, dW.k1) if side == 1
                  else (dU.k2, dV.k2, dW.k2))
    lhs = kW.intersection(Gp)
    rhs = set_product(kU.intersection(Gp), kV.intersection(Gp))
    return lhs == rhs


@dataclass(frozen=True)
class StarKernelQuotientOrders:
    """Orders of the two matched kernel sections across a composition.

    For U, V containing the diagonal, k1((U*V)') over k1(U) matches
    k1(V') over k2(U), and symmetrically on the other side; both order
    pairs are checked on construction.
    """

    left_composite: int
    left_inner: int
    right_composite: int
    right_inner: int


def star_kernel_quotient_orders(U: Subgroup, V: Subgroup, *,
                                composite: Optional[Subgroup] = None
                                ) -> StarKernelQuotientOrders:
    """The orders of :class:`StarKernelQuotientOrders` for U*V, which
    ``composite`` gives when the caller has already formed it."""
    _require_diagonal_pair(U, V)
    W = star_product(U, V) if composite is None else composite
    dU = projections_kernels(U)
    dV = projections_kernels(V)
    kcW = kernel_commutator_data(W)
    kcU = kernel_commutator_data(U)
    kcV = kernel_commutator_data(V)
    lhs1 = kcW.k1_of_derived.order // dU.k1.intersection(kcW.k1_of_derived).order
    rhs1 = kcV.k1_of_derived.order // dU.k2.intersection(kcV.k1_of_derived).order
    lhs2 = kcW.k2_of_derived.order // dV.k2.intersection(kcW.k2_of_derived).order
    rhs2 = kcU.k2_of_derived.order // dV.k1.intersection(kcU.k2_of_derived).order
    if lhs1 != rhs1 or lhs2 != rhs2:
        raise InternalInconsistency("composition kernel sections disagree")
    return StarKernelQuotientOrders(lhs1, rhs1, lhs2, rhs2)


# -- reports -------------------------------------------------------------------


def build_report(U: Subgroup, primes=None) -> dict:
    """Per-prime verdicts for a subdirect subgroup, JSON-ready.

    Maps each prime p to ``{"extensible", "methods", "witnesses"}``.
    The exact criterion is always evaluated and listed first; sufficient
    shortcuts that fired follow it, and a shortcut that contradicts the
    criterion raises InternalInconsistency.  Raises NotSubdirect when the
    projections are not onto; callers that want a soft failure should
    test ``is_subdirect`` first.
    """
    require_subdirect(U)
    info = product_of(U)
    if primes is None:
        primes = prime_factors(info.group.order)
    data = kernel_commutator_data(U)
    obstruction = obstruction_quotient(info.left, projections_kernels(U).k1)
    cyclic_ok = cyclic_sylow_sufficient(U)
    central_primes: tuple = ()
    if info.left is info.right and contains_twisted_diagonal(U) is not None:
        central_primes = _central_kernel_primes(U)
    witnesses = {
        "k1_derived_order": data.k1_of_derived.order,
        "derived_cap_k1_order": data.p1_derived_cap_k1.order,
        "commutator_k1_order": data.commutator_k1_p1.order,
        "obstruction_divisors": list(obstruction.divisors),
    }
    report = {}
    for p in sorted(set(int(p) for p in primes)):
        exact = is_p_extensible(U, p)
        methods = [METHOD_EXACT]
        if cyclic_ok:
            if not exact:
                raise InternalInconsistency(
                    f"cyclic Sylow shortcut contradicts the criterion at p={p}")
            methods.append(METHOD_CYCLIC_SYLOW)
        if p in central_primes:
            if exact:
                raise InternalInconsistency(
                    f"central shortcut contradicts the criterion at p={p}")
            methods.append(METHOD_CENTRAL)
        report[p] = {"extensible": exact, "methods": methods,
                     "witnesses": dict(witnesses)}
    return report
