"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain Python sets, no numpy, no
reuse of the package's own closure or enumeration code.  Only feasible
for the very small groups the tests use.  The three exceptions are
:func:`lattice_walk_is_section`, the direct section search that the
catalogue behind ``is_section`` replaced,
:func:`materialised_quotient`, the quotient route that the coset
routine in ``subdirect.groups`` replaced, and
:func:`dict_loop_composite`, the pairwise relation composition that the
batched ``compose_relations`` replaced; each is kept as the reference
for its replacement.  Likewise :func:`squaring_closure` and
:func:`greedy_generating_sequence` are the set-squaring closure and the
greedy generator loop that the incremental closure in
``subdirect.groups`` replaced, and :func:`recursive_value_tables`,
:func:`maximal_order_invariants` and :func:`unique_row_kernel_image` /
:func:`unique_row_fibers` are the hom-table recursion, the divisor
chain by quotients and the sorting row count that the array code in
``subdirect.homoracle`` and ``subdirect.groups`` replaced, and
:func:`pairwise_isomorphisms` is the pairwise product closure that the
generator-step walk of ``groups.isomorphisms_iter`` replaced, and
:func:`lattice_normal_subgroups` is the lattice filter that the
class-by-class join scan of ``groups.normal_subgroups`` replaced, and
:func:`dense_product_table`, :func:`digit_vector_table`,
:func:`residue_sum_table` and :func:`signed_residue_table` are the int64
table formulas that the in-place fills of ``products.direct_product``,
``presets.elementary_abelian``, ``presets.cyclic`` and
``presets.dihedral`` replaced, and :func:`all_pairs_commutator`,
:func:`join_scan_lattice` and :func:`full_restriction_matrix` are the
all-pairs commutators, the join scan that re-closes every subgroup with
every cyclic subgroup and the all-element restriction matrix that the
generator-based ``groups.mutual_commutator``, the one join per double
coset (with an element of prime-power order) of ``groups._joins`` and
``homoracle._restriction_matrix``
replaced, and :func:`pairwise_extend_hom`
is the loop over pairs of factor homs that the row search of
``homoracle.extend_hom`` replaced, and :func:`twisted_diagonal_by_scan`
is the scan over all of Aut(G) that the fiber-cut search of
``products.contains_twisted_diagonal`` replaced, and
:func:`star_monotonicity_probe` is the per-case probe that the block
arrays of verify's star-monotonicity replaced, and
:func:`brute_is_associative` and :func:`brute_is_hom` are the
all-triples and all-pairs tests that the generator-step tests of
``FiniteGroup.validate``, ``GroupHom`` and ``CyclicHom`` replaced.
:func:`preset_subdirects`, :func:`permutation_groups`,
:func:`relabelled`, :func:`reduced_latin_squares` and
:func:`right_step_generators` are not oracles: they list the subdirect
products, beyond the catalog, draw the small permutation groups,
relabel the groups that several test modules share, list the small
Latin squares with identity 0 and name the greedy generators of such a
square under right steps.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st


def brute_closure(mul, seed) -> frozenset:
    """Closure of seed (plus identity 0) under the table mul[x][y]."""
    have = {0} | set(seed)
    frontier = list(have)
    while frontier:
        nxt = []
        for a in list(have):
            for b in frontier:
                for c in (mul[a][b], mul[b][a]):
                    if c not in have:
                        have.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(have)


def mul_table(G) -> list:
    return [[int(G.product[a, b]) for b in range(G.order)]
            for a in range(G.order)]


def brute_subgroups(G) -> set:
    """All subgroups as frozensets, by testing every identity subset.

    Exponential; callers keep |G| small.
    """
    mul = mul_table(G)
    n = G.order
    rest = list(range(1, n))
    found = set()
    for r in range(0, n):
        for combo in itertools.combinations(rest, r):
            cand = frozenset((0, *combo))
            if len(cand) > 0 and n % len(cand):
                continue
            closed = all(mul[a][b] in cand for a in cand for b in cand)
            if closed:
                found.add(cand)
    return found


def brute_commutator_subgroup(G) -> frozenset:
    mul = mul_table(G)
    inv = [int(G.inverse[x]) for x in range(G.order)]
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]]
             for a in range(G.order) for b in range(G.order)}
    return brute_closure(mul, comms)


def brute_center(G) -> frozenset:
    mul = mul_table(G)
    return frozenset(a for a in range(G.order)
                     if all(mul[a][b] == mul[b][a] for b in range(G.order)))


def brute_homs_to_cyclic(G, m: int) -> set:
    """All additive value tables G -> Z/m, as tuples."""
    n = G.order
    mul = mul_table(G)
    out = set()
    for tail in itertools.product(range(m), repeat=n - 1):
        vals = (0, *tail)
        if all(vals[mul[a][b]] == (vals[a] + vals[b]) % m
               for a in range(n) for b in range(n)):
            out.add(vals)
    return out


def brute_automorphisms(G) -> list:
    """Every relabeling fixing 0 that preserves the table."""
    n = G.order
    mul = mul_table(G)
    out = []
    for perm in itertools.permutations(range(1, n)):
        img = (0, *perm)
        if all(img[mul[a][b]] == mul[img[a]][img[b]]
               for a in range(n) for b in range(n)):
            out.append(img)
    return out


def twisted_diagonal_by_scan(U):
    """The first entry of ``automorphisms(G)`` whose graph lies in
    U <= G x G, or None."""
    from subdirect import automorphisms, twisted_diagonal
    from subdirect.products import product_of

    G = product_of(U).left
    return next((phi for phi in automorphisms(G)
                 if twisted_diagonal(G, phi).is_subset_of(U)), None)


def perm_parity(perm) -> int:
    """0 for even, 1 for odd."""
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def elements_of(U) -> frozenset:
    return frozenset(U.elements)


def brute_is_normal(G, elems) -> bool:
    """Is the subgroup with these elements closed under conjugation?"""
    mul = mul_table(G)
    inv = [int(G.inverse[x]) for x in range(G.order)]
    elems = set(elems)
    return all(mul[mul[inv[g]][n]][g] in elems
               for g in range(G.order) for n in elems)


def brute_class_sizes(G) -> list:
    """|x^G| for every element x, by conjugating x with every g."""
    mul = mul_table(G)
    inv = [int(G.inverse[x]) for x in range(G.order)]
    return [len({mul[mul[inv[g]][x]][g] for g in range(G.order)})
            for x in range(G.order)]


def brute_is_subgroup(G, elems) -> bool:
    mul = mul_table(G)
    elems = set(elems)
    return 0 in elems and all(mul[a][b] in elems
                              for a in elems for b in elems)


def lattice_walk_is_section(Q, G) -> bool:
    """Is Q isomorphic to a quotient of a subgroup of G?

    Walks the subgroup lattice of G and each subgroup's normal subgroups
    of the right index, testing every quotient against Q.
    """
    from subdirect.groups import all_subgroups, is_isomorphic, quotient_group

    if Q.order == 1:
        return True
    if G.order % Q.order:
        return False
    for S in all_subgroups(G):
        if S.order % Q.order:
            continue
        Sg, _ = S.as_group()
        for N in lattice_normal_subgroups(Sg):
            if N.order * Q.order != Sg.order:
                continue
            quot, _ = quotient_group(Sg, N)
            if is_isomorphic(quot, Q):
                return True
    return False


def lattice_normal_subgroups(G) -> list:
    """The normal subgroups of G, filtered from its whole subgroup
    lattice, in lattice order."""
    from subdirect.groups import all_subgroups, is_normal

    return [S for S in all_subgroups(G) if is_normal(S)]


def materialised_quotient(P, K):
    """P/K by materialising P as a standalone group first.

    K is re-indexed into P's own table and tested for normality by
    conjugating with P's greedy generators; left cosets are numbered by
    their least local index.  Returns the quotient table and the
    parent-index to coset-index map (-1 outside P), or None when K is
    not normal in P.
    """
    import numpy as np

    from subdirect.groups import generating_sequence

    Pg, _ = P.as_group()
    local = {x: i for i, x in enumerate(P.elements)}
    ks = np.array([local[x] for x in K.elements])
    for g in generating_sequence(Pg):
        conj = Pg.product[Pg.product[Pg.inverse[g], ks], g]
        if set(conj.tolist()) != set(ks.tolist()):
            return None
    rep = Pg.product[:, ks].min(axis=1)
    reps = np.unique(rep)
    qindex = np.full(Pg.order, -1)
    qindex[reps] = np.arange(len(reps))
    table = qindex[rep[Pg.product[np.ix_(reps, reps)]]]
    to_q = np.full(P.parent.order, -1)
    to_q[np.array(P.elements)] = qindex[rep]
    return table, to_q


def dict_loop_composite(U, V) -> frozenset:
    """Elements of U*V in F x H, joining U and V on the middle factor.

    U <= F x G and V <= G x H are grouped by their middle coordinate in
    plain dicts, and every matching pair (f, g), (g, h) gives f*|H| + h.
    """
    mid = U.parent.product_info.right.order
    hn = V.parent.product_info.right.order
    by_mid_left: dict = {}
    for x in U.elements:
        f, g = divmod(x, mid)
        by_mid_left.setdefault(g, []).append(f)
    by_mid_right: dict = {}
    for y in V.elements:
        g, h = divmod(y, hn)
        by_mid_right.setdefault(g, []).append(h)
    elements = set()
    for g, fs in by_mid_left.items():
        for f in fs:
            for h in by_mid_right.get(g, ()):
                elements.add(f * hn + h)
    return frozenset(elements)


def star_monotonicity_probe(U, V, W):
    """None when k1(U) <= k1(U*V) and p1(U*V) <= p1(U) for the composite
    W = U*V, else the reason, from the projections and kernels of U and
    W: one call per case."""
    from subdirect.products import projections_kernels

    dU = projections_kernels(U)
    dW = projections_kernels(W)
    if not dU.k1.is_subset_of(dW.k1):
        return "k1(U) not inside k1(U*V)"
    if not dW.p1.is_subset_of(dU.p1):
        return "p1(U*V) not inside p1(U)"
    return None


def squaring_closure(G, seed) -> tuple:
    """Sorted elements of <seed>: square the whole set until it stops
    growing."""
    import numpy as np

    elems = np.unique(np.fromiter((int(x) for x in (0, *seed)), dtype=np.int64))
    while True:
        merged = np.unique(G.product[np.ix_(elems, elems)])
        if merged.size == elems.size:
            return tuple(int(x) for x in merged)
        elems = merged


def greedy_generating_sequence(G, elements=None) -> tuple:
    """Repeatedly adopt the smallest element, of G or of the subgroup
    with these elements, not yet generated."""
    pool = range(G.order) if elements is None else sorted(elements)
    chosen: list = []
    have = {0}
    while len(have) < len(pool):
        chosen.append(next(i for i in pool if i not in have))
        have = set(squaring_closure(G, chosen))
    return tuple(chosen)


def brute_is_associative(table) -> bool:
    """(a*b)*c == a*(b*c) for every triple, in a list-of-rows table."""
    r = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in r for b in r for c in r)


def brute_is_hom(G, image, times) -> bool:
    """image[a*b] == times(image[a], image[b]) for every pair of G."""
    mul = mul_table(G)
    image = [int(v) for v in image]
    return all(image[mul[a][b]] == times(image[a], image[b])
               for a in range(G.order) for b in range(G.order))


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1,
    as lists of rows, filled cell by cell: 1, 1, 1, 4, 56 and 9 408 of
    them for n = 1..6."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    yield from fill(0)


def right_step_generators(table) -> tuple:
    """Greedy generators of a table with identity 0 under the steps
    x -> x*s alone: repeatedly the smallest element that no left-nested
    word in the chosen ones reaches.  In a group these are the greedy
    generators of :func:`greedy_generating_sequence`."""
    chosen: list = []
    have = {0}
    while len(have) < len(table):
        chosen.append(min(set(range(len(table))) - have))
        while True:
            more = {table[x][s] for x in have for s in chosen} - have
            if not more:
                break
            have |= more
    return tuple(chosen)


def recursive_value_tables(A, m: int) -> list:
    """Hom value tables A -> C_m for abelian A, one recursion branch and
    one array copy per congruence solution, sorted as tuples."""
    import math

    import numpy as np

    from subdirect.groups import generating_sequence

    n = A.order
    if m == 1 or n == 1:
        return [np.zeros(n, dtype=np.int64)]
    schedule = []
    current = np.array([0], dtype=np.int64)
    have = {0}
    for g in generating_sequence(A):
        powers = []
        e = int(g)
        while e not in have:
            powers.append(e)
            e = int(A.product[e, g])
        t0 = len(powers) + 1
        layers = [(A.product[current, powers[t - 1]], current.copy(), t)
                  for t in range(1, t0)]
        schedule.append((t0, e, layers))
        current = np.sort(np.concatenate([current] + [lay[0] for lay in layers]))
        have = set(int(x) for x in current)

    results: list = []

    def rec(j, vals):
        if j == len(schedule):
            results.append(vals)
            return
        t0, closing, layers = schedule[j]
        target = int(vals[closing])
        d = math.gcd(t0, m)
        if target % d:
            return
        step = m // d
        v0 = (target // d) * pow(t0 // d, -1, step) % step
        for k in range(d):
            v = v0 + k * step
            grown = vals.copy()
            for targets, sources, t in layers:
                grown[targets] = (vals[sources] + t * v) % m
            rec(j + 1, grown)

    start = np.full(n, -1, dtype=np.int64)
    start[0] = 0
    rec(0, start)
    return sorted(results, key=lambda a: tuple(a))


def maximal_order_invariants(G) -> tuple:
    """Divisor chain of an abelian group: split off a cyclic subgroup of
    maximal order and recurse on the quotient."""
    from subdirect.groups import quotient_group, subgroup_generated

    chain = []
    cur = G
    while cur.order > 1:
        orders = cur.element_orders()
        x = int(orders.argmax())
        chain.append(int(orders[x]))
        cur, _ = quotient_group(cur, subgroup_generated(cur, (x,)))
    return tuple(reversed(chain))


def full_restriction_matrix(U, m: int):
    """The restriction to U of every hom G x H -> C_m, one row per pair of
    factor homs, evaluated at every element of U."""
    import numpy as np

    from subdirect.homoracle import enumerate_homs

    info = U.parent.product_info
    gs, hs = info.split(U.elements)
    vg = np.stack([h.values for h in enumerate_homs(info.left, m)])[:, gs]
    vh = np.stack([h.values for h in enumerate_homs(info.right, m)])[:, hs]
    return ((vg[:, None, :] + vh[None, :, :]) % m).reshape(-1, gs.size)


def pairwise_extend_hom(phi, U):
    """First hom on the ambient product restricting to phi, or None, by
    trying every pair of factor homs, left factor outermost."""
    import numpy as np

    from subdirect.homoracle import CyclicHom, enumerate_homs

    info = U.parent.product_info
    m = phi.modulus
    gs, hs = info.split(U.elements)
    for hl in enumerate_homs(info.left, m):
        partial = hl.values[gs]
        for hr in enumerate_homs(info.right, m):
            if (((partial + hr.values[hs]) - phi.values) % m).any():
                continue
            gi, hi = info.split(np.arange(info.group.order))
            vals = (hl.values[gi] + hr.values[hi]) % m
            return CyclicHom._trusted(info.group, m, vals)
    return None


def unique_row_kernel_image(U, m: int) -> tuple:
    """(kernel, image) of the restriction map by sorting the rows of its
    full matrix with ``np.unique(axis=0)``."""
    import numpy as np

    flat = full_restriction_matrix(U, m)
    kernel = int((flat == 0).all(axis=1).sum())
    return kernel, int(np.unique(flat, axis=0).shape[0])


def unique_row_fibers(U, m: int) -> tuple:
    """(kernel, sorted fiber sizes) of the restriction map by
    ``np.unique(axis=0, return_counts=True)`` on its full matrix."""
    import numpy as np

    flat = full_restriction_matrix(U, m)
    kernel = int((flat == 0).all(axis=1).sum())
    _, counts = np.unique(flat, axis=0, return_counts=True)
    return kernel, tuple(sorted(int(c) for c in counts))


def pairwise_isomorphisms(G1, G2):
    """Image tables of all isomorphisms G1 -> G2, in search order.

    The same backtracking as ``groups.isomorphisms_iter`` (greedy
    generators, ascending candidates, element-profile filter), but each
    new generator image is propagated by multiplying every newly mapped
    element with every mapped one, in both orders.
    """
    import numpy as np

    from subdirect.groups import _element_profile, generating_sequence

    if G1.order != G2.order:
        return
    prof1 = _element_profile(G1)
    prof2 = _element_profile(G2)
    if sorted(prof1) != sorted(prof2):
        return
    gens = generating_sequence(G1)
    n = G1.order
    t1, t2 = G1.product, G2.product

    def propagate(mapping, used, support, new):
        """Extend by products; returns the grown support or None."""
        processed = []
        frontier = list(support) + [new]
        while frontier:
            a = frontier.pop(0)
            for b in processed + [a]:
                for x, y in ((a, b), (b, a)):
                    c = int(t1[x, y])
                    img = int(t2[mapping[x], mapping[y]])
                    if mapping[c] == -1:
                        if used[img] != -1:
                            return None
                        mapping[c] = img
                        used[img] = c
                        frontier.append(c)
                    elif mapping[c] != img:
                        return None
            processed.append(a)
        return processed

    def rec(j, mapping, used, support):
        if j == len(gens):
            if len(np.unique(mapping)) == n:
                yield tuple(int(x) for x in mapping)
            return
        g = gens[j]
        for y in range(n):
            if prof2[y] != prof1[g] or used[y] != -1:
                continue
            m2 = mapping.copy()
            u2 = used.copy()
            m2[g] = y
            u2[y] = g
            grown = propagate(m2, u2, support, g)
            if grown is not None:
                yield from rec(j + 1, m2, u2, grown)

    mapping0 = np.full(n, -1, dtype=np.int64)
    used0 = np.full(n, -1, dtype=np.int64)
    mapping0[0] = 0
    used0[0] = 0
    yield from rec(0, mapping0, used0, [0])


def dense_product_table(G, H) -> np.ndarray:
    """The table of G x H from two full n x n index blocks summed in int64,
    as int32."""
    import numpy as np

    hn = H.order
    gi, hi = np.divmod(np.arange(G.order * hn), hn)
    left = G.product[gi[:, None], gi[None, :]]
    right = H.product[hi[:, None], hi[None, :]]
    return (left.astype(np.int64) * hn + right).astype(np.int32)


def digit_vector_table(p: int, k: int) -> np.ndarray:
    """The table of E_p^k from the n x n x k array of digit sums, as int32."""
    import numpy as np

    n = p ** k
    if k == 0:
        return np.zeros((1, 1), dtype=np.int32)
    idx = np.arange(n)
    digits = np.stack([(idx // p ** d) % p for d in range(k - 1, -1, -1)],
                      axis=1)
    weights = p ** np.arange(k - 1, -1, -1)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    return (summed @ weights).astype(np.int32)


def residue_sum_table(n: int) -> np.ndarray:
    """The table of C_n from the n x n int64 sum of residues, as int32."""
    import numpy as np

    idx = np.arange(n)
    return ((idx[:, None] + idx[None, :]) % n).astype(np.int32)


def signed_residue_table(order: int) -> np.ndarray:
    """The table of the dihedral group of the given order from n x n int64
    sign, rotation and reflection arrays, as int32."""
    import numpy as np

    n = order // 2
    i = np.arange(order) % n
    j = np.arange(order) // n
    sign = np.where(j == 1, -1, 1)
    ri = (i[:, None] + sign[:, None] * i[None, :]) % n
    rj = (j[:, None] + j[None, :]) % 2
    return (ri + n * rj).astype(np.int32)


def all_pairs_commutator(X, Y) -> tuple:
    """Elements of [X, Y], closed from all |X| * |Y| commutators
    x^-1 y^-1 x y by :func:`squaring_closure`, so no code of the
    library's closure walk is shared."""
    import numpy as np

    G = X.parent
    xa, ya = np.array(X.elements), np.array(Y.elements)
    t = G.product[G.inverse[xa][:, None], G.inverse[ya]]
    t = G.product[G.product[t, xa[:, None]], ya[None, :]]
    return squaring_closure(G, np.unique(t).tolist())


def join_scan_lattice(G) -> list:
    """Element tuples of every subgroup of G, sorted by order, then
    elements: every subgroup found is re-closed together with every
    cyclic subgroup until nothing new appears."""
    from subdirect.groups import subgroup_generated

    cyclic = sorted({subgroup_generated(G, (x,)).elements
                     for x in range(G.order)})
    found = {(0,)} | set(cyclic)
    queue = sorted(found, key=lambda e: (len(e), e))
    i = 0
    while i < len(queue):
        current = queue[i]
        i += 1
        for c in cyclic:
            joined = subgroup_generated(G, current + c).elements
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return sorted(found, key=lambda e: (len(e), e))


@functools.cache
def preset_subdirects() -> tuple:
    """Every subdirect product of S4 x S4, D8 x Q8, A4 x A4, D12 x D12
    and (D8xC2) x (D8xC2), built from presets: products of order up to
    576, beyond the catalog's 144."""
    from subdirect import (alternating, cyclic, dihedral, direct_product,
                           enumerate_subdirect, quaternion8, symmetric)

    S4, A4, D12 = symmetric(4), alternating(4), dihedral(12)
    D8C2 = direct_product(dihedral(8), cyclic(2)).group
    pairs = ((S4, S4), (dihedral(8), quaternion8()), (A4, A4), (D12, D12),
             (D8C2, D8C2))
    return tuple(U for G, H in pairs for U in enumerate_subdirect(G, H))


@st.composite
def permutation_groups(draw, max_degree: int = 6):
    """Groups generated by one to three permutations of degree at most
    ``max_degree``."""
    from subdirect import from_permutation_generators

    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)),
                         min_size=1, max_size=3))
    return from_permutation_generators(degree, gens)


def relabelled(data, G):
    """A copy of G under a relabelling drawn from data that fixes the
    identity."""
    import numpy as np

    from subdirect import from_cayley_table

    perm = np.array([0] + data.draw(st.permutations(range(1, G.order))))
    inv = np.argsort(perm)
    return from_cayley_table(perm[G.product[inv[:, None], inv]])
