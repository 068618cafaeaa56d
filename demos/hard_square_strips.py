"""Hard squares on strips: replaceability certifies a measure inequality.

On the hard-square shift (no two adjacent 1s in the plane), any 1 can be
overwritten by a 0 without breaking legality, so the extender set of a
single 1 sits inside that of a single 0 and its measure must be smaller.
Strip approximations of increasing width show the inequality holding with
a stable margin.
"""

from symshift import Pattern2D, hard_square, replaceability_windowed, strip_mme_mu

hs = hard_square()
one = Pattern2D((((0, 0), "1"),))
zero = Pattern2D((((0, 0), "0"),))

print("replaceability (1 -> 0):", replaceability_windowed(hs, one, zero, 1))
print("replaceability (0 -> 1):", replaceability_windowed(hs, zero, one, 1))
print()
print("width   mu_W(1)      mu_W(0)      margin")
for width in (4, 5, 6, 7, 8):
    mu1 = strip_mme_mu(hs, width, one)
    mu0 = strip_mme_mu(hs, width, zero)
    print(f"{width:5d}   {mu1:.8f}   {mu0:.8f}   {mu0 - mu1:.8f}")
print()
print("The density of 1s approaches the known hard-square value ~0.2266")
print("as the strip widens; the inequality mu_W(1) <= mu_W(0) holds at")
print("every width, as the replaceability certificate predicts.")
