"""Vortex-lattice solutions of the 2-D Ginzburg-Landau equations."""

__version__ = "0.1.0"
