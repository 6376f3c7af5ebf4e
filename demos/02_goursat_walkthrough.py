"""
Subgroups of a direct product through their five-piece data
===========================================================

Every subgroup U of G x H is a fibered product: it projects onto
subgroups p1, p2 of the factors, cuts out normal kernels k1, k2, and
induces an isomorphism between the two quotients.  This walkthrough
extracts that data, rebuilds U from it, and enumerates all subgroups
with surjective projections.
"""

from subdirect import (
    diagonal,
    direct_product,
    enumerate_subdirect,
    goursat_quintuple,
    goursat_quotient,
    is_subdirect,
    subdirect_by_scan,
    subgroup_from_quintuple,
    subgroup_generated,
    symmetric,
)

S3 = symmetric(3)
info = direct_product(S3, S3)
print("product:", info.group, "encode(2, 5) =", info.encode(2, 5))

# The diagonal {(g, g)} projects onto both factors with trivial kernels.
D = diagonal(S3)
quint = goursat_quintuple(D)
print("diagonal:", D.order, "elements;",
      "p1 order", quint.p1.order, "k1 order", quint.k1.order)
print("common section q(diagonal) has order",
      goursat_quotient(D).order)

# A fatter example: all pairs lying in the same coset of A3.  Its
# kernels are A3 on both sides and the section is C2.
U = subgroup_generated(info.group, [info.encode(g, g) for g in range(6)]
                       + [info.encode(3, 0)])
print("coset subgroup order:", U.order, "subdirect:", is_subdirect(U))
quint = goursat_quintuple(U)
print("kernels:", quint.k1.elements, quint.k2.elements,
      "section order:", quint.phi.domain.order)

# Extraction and reconstruction are mutually inverse.
print("roundtrip recovers U:", subgroup_from_quintuple(quint) == U)

# Enumerating subdirect products: normal kernel pairs with isomorphic
# quotients, one subgroup per identification.
subs = enumerate_subdirect(S3, S3)
print("subdirect products in S3 x S3:", len(subs))
for V in subs:
    q = goursat_quotient(V)
    print(f"  order {V.order:3d}  section order {q.order}")

# The independent full-lattice scan finds exactly the same set.
scanned = subdirect_by_scan(S3, S3)
print("full-lattice scan agrees:",
      {V.mask for V in subs} == {V.mask for V in scanned})
