"""Tactile afferent simulator: layered-skin FEM plus spiking neuron models.

The pipeline has two stages.  A plane-strain finite-element model of
layered skin under a vibrating rigid indenter produces von Mises stress
traces at afferent sampling nodes; per-afferent neural models (SA, RA, PC)
filter those traces, convert them to membrane drive through a saturating
transform, and emit spike trains from a leaky integrate-and-fire unit.
NSGA-II fitting and firing-rate analyses sit on top.

Units: mm / MPa / ms inside the FEM, Pa at the neural interface, mV for
membrane potentials, impulses-per-second (ips) for rates.
"""

__version__ = "0.1.0"
