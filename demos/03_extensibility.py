"""
When do all characters of U extend to G x H?
============================================

A homomorphism from a subdirect U into a cyclic group extends to the
whole product iff the kernel of the derived subgroup exhausts the
derived part of the projection kernel.  The criterion is exact; two
sufficient shortcuts decide many cases at a glance.
"""

from subdirect import (
    build_report,
    central_inextensibility,
    cyclic,
    cyclic_sylow_sufficient,
    diagonal,
    dihedral,
    direct_product,
    is_extensible,
    is_p_extensible,
    obstruction_quotient,
    subgroup_generated,
    symmetric,
)
from subdirect.products import projections_kernels


def coset_diagonal(G, kernel_elems):
    info = direct_product(G, G)
    gens = [info.encode(g, g) for g in range(G.order)]
    gens += [info.encode(k, 0) for k in kernel_elems]
    return subgroup_generated(info.group, gens)


# Full products and diagonals are always extensible.
S3 = symmetric(3)
print("full S3 x S3:", is_extensible(direct_product(S3, S3).group.full()))
print("diagonal of S3:", is_extensible(diagonal(S3)))

# (A3 x A3) times the diagonal: kernels are A3, the section is C2, and
# every Sylow subgroup of C2 is cyclic, so extension is automatic.
U = coset_diagonal(S3, [3])
print("coset subgroup of S3:", is_extensible(U),
      "| cyclic-Sylow shortcut:", cyclic_sylow_sufficient(U))

# The smallest failure: D8 with its center as the kernel.  The center
# meets the derived subgroup, and no commutator can absorb it.
D8 = dihedral(8)
V = coset_diagonal(D8, [2])
print("D8 center example extensible:", is_extensible(V))
print("  at p=2:", is_p_extensible(V, 2), " at p=3:", is_p_extensible(V, 3))
print("  central shortcut fires:", central_inextensibility(V) is False)

# The obstruction lives in (K meet G') / [K, G] for the kernel K.
data = projections_kernels(V)
q = obstruction_quotient(D8, data.k1)
print("  obstruction quotient:", q.describe(),
      "of order", q.order)

# Per-prime report with methods and witnesses.
report = build_report(V, primes=[2, 3])
for p, verdict in report.items():
    word = "extensible" if verdict["extensible"] else "inextensible"
    print(f"  p={p}: {word} via {', '.join(verdict['methods'])}")
print("overall:", all(v["extensible"] for v in report.values()))

# A cyclic group never obstructs anything.
print("C6 diagonal:", is_extensible(diagonal(cyclic(6))))
