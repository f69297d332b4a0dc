"""mpmath references for the singular integrals as reduced volumes.

J1 is the volume of {u in [0,1]^4 : u1^2 + u2^2 + u3^2 + u4^k <= 3} and
J2 the integral of log(u1^2 + u2^2 + u3^2 + u4^k) over it.  With t = u4,
z = u3 and c = t^k + z^2, the last two coordinates are a quarter disk
of radius sqrt(3 - c) cut by the unit square:

    J1 = int_0^1 [sqrt(1 - t^k) + int_{sqrt(1 - t^k)}^1 G(3 - t^k - z^2) dz] dt,

G(R) = sqrt(R - 1) + (R/2)(asin R^(-1/2) - acos R^(-1/2)) the area of
the cut disk for 1 <= R <= 2, and

    J2 = int_0^1 int_0^1 int_0^min(sqrt(3 - c), sqrt 2) s theta(s) log(c + s^2) ds dz dt,

theta(s) = pi/2 on [0, 1] and pi/2 - 2 acos(1/s) on [1, sqrt 2] the
angle of the radius-s arc inside the square.  Both are integrated by
mpmath's adaptive tanh-sinh rule, with breakpoints where an integrand
has a kink, in the forms above: no closed form for the s <= 1 part and
none of the substitutions circlekit.integrals.j_volume uses.

J1 takes about half a second per k at 20 digits, so tests compute it
live.  J2 nests three quadratures and took 11 minutes for the four k
on one core of a 2-vCPU VM, so its values are committed below.  Regenerate them with
`python3 tests/volume_reference.py` from the repository root.
"""

import mpmath as mp

DPS = 20

# k -> J2 at 20 digits, from j2_reference(k)
J2_REFERENCE = {
    3: "0.074201902935579073322",
    4: "0.024386508692502659554",
    5: "-0.0095666843454533247452",
    8: "-0.067430462138792040782",
}


def _area(R):
    """G(R): area of {(a, b) in [0,1]^2 : a^2 + b^2 <= R}, 1 <= R <= 2."""
    r = 1 / mp.sqrt(R)
    return mp.sqrt(R - 1) + R / 2 * (mp.asin(r) - mp.acos(r))


def j1_reference(k, dps=DPS):
    with mp.workdps(dps):
        def row(t):
            a = mp.sqrt(1 - t**k)
            return a + mp.quad(lambda z: _area(3 - t**k - z * z), [a, 1])

        return mp.quad(row, [0, 1])


def _theta(s):
    return mp.pi / 2 if s <= 1 else mp.pi / 2 - 2 * mp.acos(1 / s)


def _log_area(c):
    """The integral of log(c + a^2 + b^2) over {a^2 + b^2 <= 3 - c} in [0,1]^2, in polar s."""
    top = mp.sqrt(min(3 - c, 2))
    return mp.quad(lambda s: s * _theta(s) * mp.log(c + s * s), [0, 1, top])


def j2_reference(k, dps=DPS):
    with mp.workdps(dps):
        def row(t):
            # 3 - c crosses 2 at z = sqrt(1 - t^k), where min() has its kink
            return mp.quad(lambda z: _log_area(t**k + z * z), [0, mp.sqrt(1 - t**k), 1])

        return mp.quad(row, [0, 1])


def main():
    for k in (3, 4, 5, 8):
        print(f"    {k}: \"{mp.nstr(j2_reference(k), DPS)}\",", flush=True)


if __name__ == "__main__":
    main()
