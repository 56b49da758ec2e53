"""Expanding maps of the half line and their Abel charts.

A walk through the basic objects: polynomial and flat generators, the
Abel coordinate t(x) in which the flow is unit-speed translation, time-t
maps, finite-time blow-up, and fractional iterates.
"""

import numpy as np

from schroeder import AbelChart, FlowGenerated, VectorFieldGen
from schroeder import iterate, fractional_iterate
from schroeder.errors import BlowUp

# The quadratic generator rho(x) = x**2.  Its time-1 map has the closed
# form x / (1 - x), which makes every number below easy to check by hand.
gen = VectorFieldGen.poly(2, 0.0)
chart = AbelChart(gen)
phi = FlowGenerated(gen)

print("time-1 map of x**2 at 0.1:", phi(0.1), "(exact: 1/9)")
print("two steps from 0.1:       ", iterate(phi, 2, 0.1), "(exact: 1/8)")
print("inverse of 0.25:          ", phi.inverse_value(0.25), "(exact: 0.2)")

# The Abel coordinate is the integral of 1/rho from the base point x0 = 1.
# For rho = x**2 that is 1 - 1/x, so t(0.5) = -1 and t(2) = 0.5.
print("\nAbel time t(0.5):", chart.abel_time(0.5))
print("Abel time t(2.0):", chart.abel_time(2.0))

# In the Abel chart the map is exactly t -> t + 1.  The residual of that
# unit shift is the honest accuracy measure of the whole chart machinery.
xs = np.geomspace(1e-3, 0.9 * chart.blowup_x(), 25)
worst = max(abs(chart.abel_time(chart.flow_map(1.0, float(x)))
                - chart.abel_time(float(x)) - 1.0) for x in xs)
print("worst Abel-equation residual on a log grid:", worst)

# Quadratic growth reaches infinity in finite time: flows are refused
# past the remaining lifetime instead of extrapolated.
print("\nremaining lifetime from x = 0.5:", chart.remaining_lifetime(0.5))
try:
    chart.flow_map(3.0, 0.5)
except BlowUp as exc:
    print("refused:", exc)

# Fractional iterates interpolate the map through its flow: the half
# iterate applied twice is the map itself.
x = 0.2
half = fractional_iterate(phi, 0.5, x)
print("\nhalf iterate of 0.2:", half)
print("half twice vs full: ", fractional_iterate(phi, 0.5, half), phi(x))

# The flat generator exp(-1/x) is tangent to zero to infinite order at
# the origin.  Near 0 its Abel times are astronomically large, so this
# chart computes in adaptive precision and returns mpmath reals.
flat = AbelChart(VectorFieldGen.flat())
t = flat.abel_time(1e-3)
print("\nflat-generator Abel time at 1e-3 has magnitude ~1e%d" %
      round(float(__import__("mpmath").log10(abs(t)))))
y = flat.flow_map(1.0, 1e-3)
print("unit-shift residual there:",
      float(abs(flat.abel_time(y) - t - 1)))
